//! The LongSight serving system: GPU + DReX collaborative hybrid attention
//! (paper §6, Fig 2b).
//!
//! Per decode step, per layer: the GPU writes a Request Descriptor into the
//! DCC queue, performs dense attention over the sliding window while DReX
//! filters/scores/ranks the long-range keys, polls for completion, reads the
//! top-k values over CXL, and finishes with a single softmax + SV merge.
//! The dense window attention *overlaps* the offload; whichever is slower
//! paces the layer.

use crate::degrade::DegradeStats;
use crate::report::{
    Infeasible, OffloadComponents, ServingSystem, SpecStep, StepBreakdown, StepReport,
};
use longsight_core::HybridConfig;
use longsight_cxl::CxlLink;
use longsight_dram::Geometry;
use longsight_drex::layout::{self, MAX_CONTEXT_SLICE_KEYS};
use longsight_drex::{
    time_slice_offload, DccSim, DrexParams, HeadOffloadSpec, HeadOffloadTiming, REQUEST_QUEUE_DEPTH,
};
use longsight_faults::{
    domain, stream, FaultInjector, FaultKind, FaultLog, FaultProfile, RetryPolicy,
};
use longsight_gpu::{decode_step, GpuSpec};
use longsight_model::ModelConfig;
use longsight_obs::{ArgVal, Recorder, TrackId};

/// Configuration of a LongSight deployment: one GPU + one DReX unit.
#[derive(Debug, Clone)]
pub struct LongSightConfig {
    /// The GPU.
    pub gpu: GpuSpec,
    /// DReX hardware parameters.
    pub drex: DrexParams,
    /// DReX memory geometry.
    pub geometry: Geometry,
    /// CXL link between GPU and DReX.
    pub link: CxlLink,
    /// Hybrid attention parameters (window, sinks, k).
    pub hybrid: HybridConfig,
    /// Expected non-window KV-cache filter ratio achieved by tuned SCF
    /// thresholds (the paper measures ≈20× on average, §8.2).
    pub filter_ratio: f64,
    /// Fault-injection profile. Disabled by default: every evaluation takes
    /// the exact fault-free code path and stays bit-identical to the
    /// pre-fault model.
    pub faults: FaultProfile,
    /// Retry/deadline policy applied when faults are enabled.
    pub retry: RetryPolicy,
    /// Seed of the deterministic fault schedule (CLI `--fault-seed`).
    pub fault_seed: u64,
    /// Lookahead (speculative async offload) pipeline. Disabled by default:
    /// every evaluation takes the exact synchronous code path and stays
    /// bit-identical to the pre-lookahead model.
    pub lookahead: LookaheadConfig,
}

impl LongSightConfig {
    /// The paper's system: H100 + DReX, W = 1024, 16 sinks, k = 1024,
    /// 20× filter ratio.
    pub fn paper_default() -> Self {
        Self {
            gpu: GpuSpec::h100_sxm(),
            drex: DrexParams::paper(),
            geometry: Geometry::drex(),
            link: CxlLink::pcie5_x16(),
            hybrid: HybridConfig::paper_default(),
            filter_ratio: 20.0,
            faults: FaultProfile::disabled(),
            retry: RetryPolicy::serving_default(),
            fault_seed: 0,
            lookahead: LookaheadConfig::disabled(),
        }
    }

    /// Enables fault injection with `profile` and `seed`, keeping the
    /// default retry policy.
    pub fn with_faults(mut self, profile: FaultProfile, seed: u64) -> Self {
        self.faults = profile;
        self.fault_seed = seed;
        self
    }

    /// Sets the lookahead pipeline configuration.
    pub fn with_lookahead(mut self, lookahead: LookaheadConfig) -> Self {
        self.lookahead = lookahead;
        self
    }
}

/// Configuration of the lookahead speculation pipeline: the bounded pool of
/// in-flight DReX offload slots that issue step *t+1*'s filter→score→top-k
/// chain during step *t* and hide it behind the GPU's dense work.
///
/// Disabled (`enabled == false`), every knob is inert and the system is
/// bit-identical to the synchronous model. Misses are drawn from the
/// deterministic `domain::SPEC` stream keyed by `(request, token, seed)`,
/// so a run is reproducible at any worker-thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookaheadConfig {
    /// Whether speculative issue is on.
    pub enabled: bool,
    /// Bound on concurrent in-flight speculative chains per DReX device
    /// (shared by the whole batch; exhaustion denies the issue and the
    /// token falls back to the synchronous path).
    pub slots: usize,
    /// Probability that a speculated region is stale by the time the token
    /// consumes it (context grew past the speculated region, or an
    /// eviction/restore invalidated its pages).
    pub miss_rate: f64,
    /// Deterministic re-filter penalty charged once per missed step, on
    /// top of the synchronous timing, ns.
    pub refilter_penalty_ns: f64,
    /// Seed of the miss-draw stream.
    pub seed: u64,
}

impl LookaheadConfig {
    /// Lookahead off; the knobs hold the serving defaults so flipping
    /// `enabled` is enough to opt in.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::serving_default()
        }
    }

    /// The serving default: 32 pooled slots, a 2% stale-speculation rate,
    /// and a 0.25 ms re-filter penalty per missed step.
    pub fn serving_default() -> Self {
        Self {
            enabled: true,
            slots: 32,
            miss_rate: 0.02,
            refilter_penalty_ns: 250_000.0,
            seed: 0,
        }
    }
}

/// Detailed timing of one DReX offload under load (drives Fig 8).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OffloadProfile {
    /// PFU filtering, ns.
    pub filter_ns: f64,
    /// Bitmap reads, ns.
    pub bitmap_ns: f64,
    /// Address generation, ns.
    pub addr_gen_ns: f64,
    /// Key fetch + dot-product, ns.
    pub fetch_score_ns: f64,
    /// Top-k ranking, ns.
    pub topk_ns: f64,
    /// Waiting for a free NMA (multi-user contention), ns.
    pub queue_wait_ns: f64,
    /// Polling + top-k value transfer over CXL, ns.
    pub value_cxl_ns: f64,
}

impl OffloadProfile {
    /// Total observed offload latency.
    pub fn total_ns(&self) -> f64 {
        self.filter_ns
            + self.bitmap_ns
            + self.addr_gen_ns
            + self.fetch_score_ns
            + self.topk_ns
            + self.queue_wait_ns
            + self.value_cxl_ns
    }
}

/// Splits the step's *visible* offload wait along the measured profile
/// fractions. The link share is the exact remainder, so the four components
/// always sum to `visible_ns` bit-for-bit.
fn visible_components(profile: &OffloadProfile, visible_ns: f64) -> OffloadComponents {
    let total = profile.total_ns();
    if total <= 0.0 || visible_ns <= 0.0 {
        return OffloadComponents::default();
    }
    let scale = visible_ns / total;
    let filter = (profile.filter_ns + profile.bitmap_ns + profile.addr_gen_ns) * scale;
    let score = (profile.fetch_score_ns + profile.topk_ns) * scale;
    let queue = profile.queue_wait_ns * scale;
    OffloadComponents {
        filter_ns: filter,
        score_ns: score,
        queue_ns: queue,
        link_ns: visible_ns - filter - score - queue,
    }
}

/// The issue half of one layer's DReX offload: descriptor submit, PFU/NMA
/// chain timing, and DCC slot scheduling for the whole batch — everything
/// the device pipeline does before the GPU observes completion. This is
/// what a speculative lookahead slot carries in flight; the complete half
/// ([`LongSightSystem::drex_layer_complete`]) adds completion polling and
/// the value read.
#[derive(Debug, Clone)]
pub struct IssuedLayer {
    /// Device completion of the critical user's last slice, ns relative to
    /// the issue instant.
    pub ready_rel_ns: f64,
    /// Worst NMA queueing of the critical user plus the descriptor submit,
    /// ns.
    pub queue_wait_ns: f64,
    /// CXL descriptor submit cost, ns.
    pub submit_ns: f64,
    /// Response Descriptor payload, bytes.
    pub response_bytes: usize,
    /// Batch size issued.
    pub users: usize,
    /// Context Slices per head.
    pub slices: usize,
    /// Device-phase timing of the critical (full-size) slice chain.
    pub chain: HeadOffloadTiming,
    /// Device time of each head's last Context Slice, ns: the remainder
    /// slice when the region does not fill whole slices, else the same as
    /// `chain.total_ns()`.
    pub last_slice_ns: f64,
}

/// One layer's offload timing under fault injection, with the degradation
/// bookkeeping needed by the availability experiment.
#[derive(Debug, Clone)]
pub struct FaultedLayerReport {
    /// Layer pacing time including retries and degradation waits, ns.
    pub layer_ns: f64,
    /// Fault-free profile of the critical chain (for breakdown reporting).
    pub profile: OffloadProfile,
    /// Deterministic fault event timeline of this layer evaluation.
    pub log: FaultLog,
    /// Retried/degraded token counters.
    pub stats: DegradeStats,
    /// Total CXL CRC replay rounds paid by unresolved users.
    pub replay_rounds: usize,
    /// Slice executions that ran on a straggling NMA.
    pub straggled_slices: usize,
}

/// The LongSight serving system.
#[derive(Debug, Clone)]
pub struct LongSightSystem {
    /// Deployment configuration.
    pub config: LongSightConfig,
    /// Model served.
    pub model: ModelConfig,
}

impl LongSightSystem {
    /// Creates the system.
    pub fn new(config: LongSightConfig, model: ModelConfig) -> Self {
        Self { config, model }
    }

    /// The sparse (offloaded) region size for a context length.
    fn region(&self, context: usize) -> usize {
        context.saturating_sub(self.config.hybrid.window + self.config.hybrid.sinks)
    }

    /// Request Descriptor size: a header plus one BF16 query per Q head.
    fn descriptor_bytes(&self) -> usize {
        8 + self.model.q_heads * self.model.head_dim * 2
    }

    /// Response Descriptor size: "a list of 1,024 × H top Keys and Values"
    /// (§7.3.1) — k entries per KV head, shared by the GQA group.
    fn response_bytes(&self, region: usize) -> usize {
        let d = self.model.head_dim;
        self.model.kv_heads * self.config.hybrid.top_k.min(region) * (d * 2 + 8)
    }

    /// Times one Context Slice of this deployment's head workload (see
    /// [`time_slice_offload`]; `trace` is passed through).
    ///
    /// # Panics
    ///
    /// Panics when the configured `top_k` exceeds the DReX hardware top-k
    /// bound; the rest of the spec is consistent by construction.
    fn time_slice(
        &self,
        spec: &HeadOffloadSpec,
        keys: usize,
        survivors: usize,
        seed: u64,
        trace: Option<(&mut Recorder, TrackId, f64)>,
    ) -> HeadOffloadTiming {
        time_slice_offload(&self.config.drex, spec, keys, survivors, seed, trace)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// One user's slice workloads for the NMA pool, head-major: a
    /// `(package, duration_ns(head, slice))` pair for every Context Slice of
    /// every KV head, spread round-robin over the packages.
    fn user_slices(
        &self,
        user: usize,
        slices: usize,
        mut duration_ns: impl FnMut(usize, usize) -> f64,
    ) -> Vec<(usize, f64)> {
        let kv = self.model.kv_heads;
        let packages = self.config.geometry.packages;
        let mut works = Vec::with_capacity(kv * slices);
        for h in 0..kv {
            for s in 0..slices {
                works.push(((user * kv + h + s * kv) % packages, duration_ns(h, s)));
            }
        }
        works
    }

    /// Times one layer's DReX offloads for a batch and returns
    /// `(last-user observed completion ns, profile of the last user)`.
    pub fn drex_layer(&self, users: usize, context: usize) -> (f64, OffloadProfile) {
        let mut rec = Recorder::disabled();
        self.drex_layer_traced(users, context, &mut rec, 0.0)
    }

    /// [`LongSightSystem::drex_layer`] that also records the layer's
    /// internal timeline into `rec`, anchored at simulated time
    /// `anchor_ns`: the critical slice's PFU/NMA phase chain
    /// (`nma.critical` track), every user's slice executions on the
    /// per-NMA tracks, the CXL descriptor submit / completion poll / value
    /// transfer (`cxl` track), and the whole offload envelope (`drex`
    /// track). The returned numbers are bit-identical to the plain call —
    /// with a disabled recorder this *is* the plain call.
    pub fn drex_layer_traced(
        &self,
        users: usize,
        context: usize,
        rec: &mut Recorder,
        anchor_ns: f64,
    ) -> (f64, OffloadProfile) {
        match self.drex_layer_issue(users, context, rec, anchor_ns) {
            Some(issued) => self.drex_layer_complete(&issued, rec, anchor_ns),
            None => (0.0, OffloadProfile::default()),
        }
    }

    /// Issues one layer's offloads for the batch: times the slice chain,
    /// schedules every user's slices on the NMA pool, and returns the
    /// in-flight state up to (but not including) completion polling and the
    /// value read. Returns `None` when there is nothing to offload (empty
    /// region or batch).
    ///
    /// Composing this with [`LongSightSystem::drex_layer_complete`] is
    /// bit-identical to [`LongSightSystem::drex_layer_traced`] — the split
    /// exists so the lookahead pipeline can put the issue half in flight a
    /// step early.
    pub fn drex_layer_issue(
        &self,
        users: usize,
        context: usize,
        rec: &mut Recorder,
        anchor_ns: f64,
    ) -> Option<IssuedLayer> {
        let cfg = &self.config;
        let region = self.region(context);
        if region == 0 || users == 0 {
            return None;
        }

        let survivors_total = ((region as f64 / cfg.filter_ratio) as usize).min(region);
        let spec = HeadOffloadSpec {
            context_len: region,
            head_dim: self.model.head_dim,
            queries: self.model.group_size(),
            k: cfg.hybrid.top_k.min(region),
            survivors: survivors_total,
        };

        // Distinct slice shapes: full slices plus one remainder.
        let slices = region.div_ceil(MAX_CONTEXT_SLICE_KEYS);
        let full_keys = region.min(MAX_CONTEXT_SLICE_KEYS);
        let rem_keys = region - (slices - 1) * MAX_CONTEXT_SLICE_KEYS;
        let surv = |keys: usize| -> usize {
            (((survivors_total as f64) * keys as f64 / region as f64).round() as usize).min(keys)
        };
        // The full and remainder shapes are independent seeded simulations,
        // so they time concurrently; each call returns exactly what a serial
        // call with the same (shape, seed) returns.
        let slice_timings = if rem_keys == full_keys {
            vec![self.time_slice(&spec, full_keys, surv(full_keys), 17, None)]
        } else {
            let shapes = [(full_keys, 17u64), (rem_keys, 18u64)];
            longsight_exec::deterministic_map(&shapes, |_, &(keys, seed)| {
                self.time_slice(&spec, keys, surv(keys), seed, None)
            })
        };
        let chain = slice_timings[0];
        let t_full = chain.total_ns();
        let t_rem = slice_timings[slice_timings.len() - 1].total_ns();

        // Schedule every user's slices on the NMA pool.
        let mut dcc = DccSim::new(cfg.drex.clone(), cfg.link.clone(), cfg.geometry.packages);
        let submit = cfg.link.descriptor_submit_ns(self.descriptor_bytes());

        if rec.is_enabled() {
            // Phase detail of the critical (full-size) slice, anchored where
            // NMA work begins — after the descriptor submit.
            let nma_track = rec.track("nma.critical");
            let trace = Some((&mut *rec, nma_track, anchor_ns + submit));
            self.time_slice(&spec, full_keys, surv(full_keys), 17, trace);
        }
        // Shadow scheduler for span emission at absolute sim time: the busy
        // timeline is shift-invariant, so replaying the identical schedule
        // from `anchor_ns + submit` reproduces the real one exactly, offset.
        let mut shadow = rec
            .is_enabled()
            .then(|| DccSim::new(cfg.drex.clone(), cfg.link.clone(), cfg.geometry.packages));

        let mut last_done = 0.0f64;
        let mut last_wait = 0.0f64;
        for u in 0..users {
            let works = self.user_slices(
                u,
                slices,
                |_, s| if s + 1 == slices { t_rem } else { t_full },
            );
            let (done, wait) = dcc.schedule_slices(submit, &works, None);
            if let Some(sh) = shadow.as_mut() {
                let label = format!("offload.u{u}");
                sh.schedule_slices(anchor_ns + submit, &works, Some((&mut *rec, &label)));
            }
            if done >= last_done {
                last_done = done;
                last_wait = wait;
            }
        }

        Some(IssuedLayer {
            ready_rel_ns: last_done,
            queue_wait_ns: last_wait + submit,
            submit_ns: submit,
            response_bytes: self.response_bytes(region),
            users,
            slices,
            chain,
            last_slice_ns: t_rem,
        })
    }

    /// Completes an issued layer: the GPU polls for device completion, reads
    /// the top-k values over CXL, and the critical chain's profile is
    /// decomposed. Returns `(last-user observed completion ns, profile)`,
    /// both relative to the issue instant.
    pub fn drex_layer_complete(
        &self,
        issued: &IssuedLayer,
        rec: &mut Recorder,
        anchor_ns: f64,
    ) -> (f64, OffloadProfile) {
        let cfg = &self.config;
        let ready_rel = issued.ready_rel_ns;
        let polled = cfg.link.polled_completion_ns(ready_rel, 0);
        let transfer = cfg.link.transfer_ns(issued.response_bytes, 0);
        let value_cxl = polled - ready_rel + transfer;
        let observed = ready_rel + value_cxl;

        if rec.is_enabled() {
            let cxl_track = rec.track("cxl");
            rec.leaf_with(
                cxl_track,
                "cxl.submit",
                anchor_ns,
                anchor_ns + issued.submit_ns,
                &[("bytes", ArgVal::U(self.descriptor_bytes() as u64))],
            );
            rec.leaf_with(
                cxl_track,
                "cxl.poll",
                anchor_ns + ready_rel,
                anchor_ns + polled,
                &[("ready_at_ns", ArgVal::F(ready_rel))],
            );
            rec.leaf_with(
                cxl_track,
                "cxl.transfer",
                anchor_ns + polled,
                anchor_ns + polled + transfer,
                &[
                    ("bytes", ArgVal::U(issued.response_bytes as u64)),
                    ("replays", ArgVal::U(0)),
                ],
            );
            let drex_track = rec.track("drex");
            rec.leaf_with(
                drex_track,
                "drex.offload",
                anchor_ns,
                anchor_ns + observed,
                &[
                    ("users", ArgVal::U(issued.users as u64)),
                    ("slices", ArgVal::U(issued.slices as u64)),
                    ("queue_wait_ns", ArgVal::F(issued.queue_wait_ns)),
                ],
            );
        }

        // Decompose the critical chain's device time for the profile (the
        // full-slice timing computed at issue).
        let chain = issued.chain;
        let profile = OffloadProfile {
            filter_ns: chain.filter_ns,
            bitmap_ns: chain.bitmap_ns,
            addr_gen_ns: chain.addr_gen_ns,
            fetch_score_ns: chain.fetch_score_ns,
            topk_ns: chain.topk_ns,
            queue_wait_ns: issued.queue_wait_ns,
            value_cxl_ns: value_cxl,
        };
        (observed, profile)
    }

    /// Times one layer's offloads under fault injection with the
    /// retry/deadline degradation policy.
    ///
    /// Per retry round, the *whole* batch's slice workloads are scheduled on
    /// the NMA pool with per-slice straggler multipliers, and each user's
    /// value read pays its sampled CXL CRC replay rounds. A user whose
    /// observed completion beats the per-request offload deadline resolves;
    /// the rest pay the full deadline plus an exponential backoff and retry.
    /// Users that exhaust the retry budget degrade to dense window-only
    /// attention for this token.
    ///
    /// Retried attempts are charged full-batch contention (the NMA pool does
    /// not empty out just because one request is retrying), so a faulted
    /// layer is never cheaper than the fault-free one, and every fault
    /// decision derives from `(fault_seed, user, head, slice, attempt)` —
    /// the timeline is identical at any thread count.
    pub fn drex_layer_faulty(&self, users: usize, context: usize) -> FaultedLayerReport {
        let cfg = &self.config;
        let inj = FaultInjector::new(cfg.faults.clone(), cfg.fault_seed);
        let retry = cfg.retry;
        let mut rec = Recorder::disabled();
        let issued = self.drex_layer_issue(users, context, &mut rec, 0.0);
        let (clean_ns, profile) = match &issued {
            Some(issued) => self.drex_layer_complete(issued, &mut rec, 0.0),
            None => (0.0, OffloadProfile::default()),
        };
        let mut report = FaultedLayerReport {
            layer_ns: clean_ns,
            profile,
            log: FaultLog::new(),
            stats: DegradeStats::default(),
            replay_rounds: 0,
            straggled_slices: 0,
        };
        let Some(issued) = issued.filter(|_| inj.is_enabled()) else {
            return report;
        };

        // Every retry round replays the slice times the clean issue measured.
        let slices = issued.slices;
        let t_full = issued.chain.total_ns();
        let t_rem = issued.last_slice_ns;
        let submit = issued.submit_ns;
        let response_bytes = issued.response_bytes;

        let mut elapsed = vec![0.0f64; users];
        let mut resolved = vec![false; users];
        for attempt in 0..=retry.max_retries {
            if resolved.iter().all(|&r| r) {
                break;
            }
            // Full-batch contention every round: resolved users' completed
            // work still occupies the pool from this step's perspective.
            let mut dcc = DccSim::new(cfg.drex.clone(), cfg.link.clone(), cfg.geometry.packages);
            let mut observed = vec![0.0f64; users];
            for (u, obs) in observed.iter_mut().enumerate() {
                let works = self.user_slices(u, slices, |h, s| {
                    let base = if s + 1 == slices { t_rem } else { t_full };
                    let key = stream(
                        domain::SLICE,
                        u as u64,
                        (h * slices + s) as u64,
                        attempt as u64,
                    );
                    let mult = inj.straggler_multiplier(key);
                    if mult > 1.0 && !resolved[u] {
                        report
                            .log
                            .push(key, FaultKind::Straggler { multiplier: mult });
                        report.straggled_slices += 1;
                    }
                    base * mult
                });
                let (done, _) = dcc.schedule_slices(submit, &works, None);
                let link_key = stream(domain::LINK, u as u64, attempt as u64, 0);
                let replays = inj.link_replays(link_key);
                if replays > 0 && !resolved[u] {
                    report.log.push(link_key, FaultKind::LinkReplay { replays });
                    report.replay_rounds += replays as usize;
                }
                *obs = done + cfg.link.polled_completion_ns(done, replays) - done
                    + cfg.link.transfer_ns(response_bytes, replays);
            }
            for u in 0..users {
                if resolved[u] {
                    continue;
                }
                let token_key = stream(domain::TOKEN, u as u64, attempt as u64, 0);
                if observed[u] <= retry.offload_deadline_ns {
                    elapsed[u] += observed[u];
                    resolved[u] = true;
                    if attempt > 0 {
                        report.stats.retried_tokens += 1;
                    }
                } else {
                    report.log.push(token_key, FaultKind::Timeout { attempt });
                    elapsed[u] += retry.offload_deadline_ns;
                    if attempt < retry.max_retries {
                        let backoff = retry.backoff_ns(attempt + 1);
                        elapsed[u] += backoff;
                        report.log.push(
                            token_key,
                            FaultKind::Retry {
                                attempt: attempt + 1,
                                backoff_ns: backoff,
                            },
                        );
                    } else {
                        report.log.push(token_key, FaultKind::Degraded);
                        report.stats.degraded_tokens += 1;
                    }
                }
            }
        }
        // A faulted layer is paced by its slowest user and never beats the
        // fault-free schedule (multipliers ≥ 1, failed attempts cost the
        // full deadline).
        report.layer_ns = elapsed.iter().fold(clean_ns, |acc, &e| acc.max(e));
        report
    }

    /// Times one layer's offloads for a *heterogeneous* batch — one context
    /// length per user (paper §7.3.3: "LongSight does not statically
    /// allocate equal context lengths to all users"). Returns the last
    /// user's observed completion.
    pub fn drex_layer_mixed(&self, contexts: &[usize]) -> f64 {
        let cfg = &self.config;
        let kv = self.model.kv_heads;
        let mut dcc = DccSim::new(cfg.drex.clone(), cfg.link.clone(), cfg.geometry.packages);
        let submit = cfg.link.descriptor_submit_ns(self.descriptor_bytes());

        // Each user's per-slice (keys, survivors) shapes, in slice order.
        let slice_shapes = |region: usize| -> Vec<(usize, usize)> {
            let survivors_total = ((region as f64 / cfg.filter_ratio) as usize).min(region);
            (0..region.div_ceil(MAX_CONTEXT_SLICE_KEYS))
                .map(|s| {
                    let keys = (region - s * MAX_CONTEXT_SLICE_KEYS).min(MAX_CONTEXT_SLICE_KEYS);
                    let survivors =
                        ((survivors_total as f64) * keys as f64 / region as f64).round() as usize;
                    (keys, survivors.min(keys))
                })
                .collect()
        };
        // Users overwhelmingly share slice shapes, so first collect the
        // distinct (keys, survivors) pairs across the whole batch, then time
        // them concurrently — each timing is an independent seeded
        // simulation, identical to what the old lazy per-shape cache
        // computed serially.
        let mut shapes: Vec<(usize, usize)> = Vec::new();
        for &ctx in contexts {
            for shape in slice_shapes(self.region(ctx)) {
                if !shapes.contains(&shape) {
                    shapes.push(shape);
                }
            }
        }
        let shape_times = longsight_exec::deterministic_map(&shapes, |_, &(keys, survivors)| {
            let spec = HeadOffloadSpec {
                context_len: keys,
                head_dim: self.model.head_dim,
                queries: self.model.group_size(),
                k: cfg.hybrid.top_k.min(keys.max(1)),
                survivors,
            };
            self.time_slice(&spec, keys, survivors, 23, None).total_ns()
        });

        let mut last_done = 0.0f64;
        for (u, &ctx) in contexts.iter().enumerate() {
            let region = self.region(ctx);
            if region == 0 {
                continue;
            }
            let mut works = Vec::new();
            for (s, shape) in slice_shapes(region).into_iter().enumerate() {
                let at = shapes
                    .iter()
                    .position(|&known| known == shape)
                    .expect("every scheduled shape was collected above");
                for h in 0..kv {
                    let pkg = (u * kv + h + s * kv) % cfg.geometry.packages;
                    works.push((pkg, shape_times[at]));
                }
            }
            let (done, _) = dcc.schedule_slices(submit, &works, None);
            let observed = done + cfg.link.polled_completion_ns(done, 0) - done
                + cfg.link.transfer_ns(self.response_bytes(region), 0);
            last_done = last_done.max(observed);
        }
        last_done
    }

    /// Evaluates one decode step for a heterogeneous batch (one context per
    /// user). Throughput counts every user once per step.
    ///
    /// # Errors
    ///
    /// Returns the first capacity violation.
    pub fn evaluate_mixed(&mut self, contexts: &[usize]) -> Result<StepReport, Infeasible> {
        let cfg = &self.config;
        let users = contexts.len();
        if users > REQUEST_QUEUE_DEPTH {
            return Err(Infeasible::QueueDepth);
        }
        // Every user holds at most the batch's longest context in HBM.
        let longest = contexts.iter().copied().max().unwrap_or(0);
        let resident = (cfg.hybrid.window + cfg.hybrid.sinks).min(longest);
        if !longsight_gpu::fits_in_hbm(&cfg.gpu, &self.model, users, resident) {
            return Err(Infeasible::GpuMemory);
        }
        // DReX capacity: sum of per-user footprints.
        let per_token = longsight_drex::layout::ObjectFootprint::for_keys(1, self.model.head_dim)
            .total()
            * self.model.kv_heads
            * self.model.layers;
        let total: usize = contexts.iter().map(|&c| self.region(c) * per_token).sum();
        if total > cfg.geometry.total_bytes() {
            return Err(Infeasible::DrexMemory);
        }

        let layers = self.model.layers as f64;
        let max_region = contexts.iter().map(|&c| self.region(c)).max().unwrap_or(0);
        let k_merged = if max_region > 0 {
            cfg.hybrid.top_k.min(max_region)
        } else {
            0
        };
        let gpu = decode_step(&cfg.gpu, &self.model, users, resident, true, k_merged);
        let drex_layer_ns = self.drex_layer_mixed(contexts);

        let attn_layer = gpu.attention_ns / layers;
        let overlap = attn_layer.max(drex_layer_ns);
        let drex_visible = (drex_layer_ns - attn_layer).max(0.0) * layers;
        let breakdown = StepBreakdown {
            gpu_weights_ns: gpu.weights_ns,
            gpu_attention_ns: attn_layer.min(overlap) * layers,
            gpu_merge_ns: gpu.itq_ns + gpu.merge_ns,
            drex_offload_ns: drex_visible * 0.7,
            cxl_ns: drex_visible * 0.3,
        };
        let avg_ctx = contexts.iter().sum::<usize>() / users.max(1);
        Ok(StepReport::from_breakdown(users, avg_ctx, breakdown))
    }

    /// Evaluates one decode step under fault injection, returning the step
    /// report together with the fault timeline and degradation counters of
    /// the representative layer.
    ///
    /// This is the one step evaluation: [`ServingSystem::evaluate`] returns
    /// its report. With faults disabled the layer is the fault-free
    /// [`LongSightSystem::drex_layer`] and the log is empty. The decode step
    /// repeats the same per-layer offload schedule `layers` times, so the
    /// per-layer degradation counters are reported once (per-step counts
    /// scale linearly).
    ///
    /// # Errors
    ///
    /// Returns the first capacity violation.
    pub fn evaluate_with_faults(
        &mut self,
        users: usize,
        context: usize,
    ) -> Result<(StepReport, FaultLog, DegradeStats), Infeasible> {
        let cfg = &self.config;
        let resident = (cfg.hybrid.window + cfg.hybrid.sinks).min(context);
        if users > REQUEST_QUEUE_DEPTH {
            return Err(Infeasible::QueueDepth);
        }
        if !longsight_gpu::fits_in_hbm(&cfg.gpu, &self.model, users, resident) {
            return Err(Infeasible::GpuMemory);
        }
        if self.drex_max_users(context) < users {
            return Err(Infeasible::DrexMemory);
        }

        let layers = self.model.layers as f64;
        let k_merged = if self.region(context) > 0 {
            cfg.hybrid.top_k.min(self.region(context))
        } else {
            0
        };
        let gpu = decode_step(&cfg.gpu, &self.model, users, resident, true, k_merged);
        let faulted = self.drex_layer_faulty(users, context);

        let attn_layer = gpu.attention_ns / layers;
        let overlap = attn_layer.max(faulted.layer_ns);
        let drex_visible = (faulted.layer_ns - attn_layer).max(0.0) * layers;
        let breakdown = StepBreakdown {
            gpu_weights_ns: gpu.weights_ns,
            gpu_attention_ns: attn_layer.min(overlap) * layers,
            gpu_merge_ns: gpu.itq_ns + gpu.merge_ns,
            drex_offload_ns: drex_visible * 0.7,
            cxl_ns: drex_visible * 0.3,
        };
        let report = StepReport::from_breakdown(users, context, breakdown)
            .with_offload(visible_components(&faulted.profile, drex_visible));
        let report = if self.config.lookahead.enabled {
            let gpu_serial_layer = (gpu.weights_ns + gpu.itq_ns + gpu.merge_ns) / layers;
            self.lookahead_report(
                report,
                drex_visible,
                gpu_serial_layer,
                attn_layer,
                faulted.layer_ns,
                &faulted.profile,
                layers,
            )
        } else {
            report
        };
        Ok((report, faulted.log, faulted.stats))
    }

    /// Rewrites a synchronous step report into the lookahead *hit*-path
    /// report, keeping the serial timing alongside in [`SpecStep`].
    ///
    /// On a hit, the chain issued at step *t−1* is already in flight, so
    /// the whole per-layer GPU budget (serial work + window attention)
    /// hides it; only the remainder stays visible. The serial numbers are
    /// carried over bit-for-bit so a miss (or a slot denial) can charge
    /// the exact synchronous timing.
    #[allow(clippy::too_many_arguments)]
    fn lookahead_report(
        &self,
        serial: StepReport,
        serial_visible_ns: f64,
        gpu_serial_layer: f64,
        attn_layer: f64,
        drex_layer_ns: f64,
        profile: &OffloadProfile,
        layers: f64,
    ) -> StepReport {
        let la = self.config.lookahead;
        // A chain issued at step t (when the GPU passes layer ℓ) is needed
        // at step t+1's visit to the same layer — one full revisit period
        // later. Its overlap budget is therefore the GPU work of a whole
        // step, not one layer's slice.
        let budget = (gpu_serial_layer + attn_layer) * layers;
        let hidden_layer = self.config.link.overlapped_ns(drex_layer_ns, budget);
        let hit_visible = (drex_layer_ns - hidden_layer) * layers;
        let breakdown = StepBreakdown {
            gpu_weights_ns: serial.breakdown.gpu_weights_ns,
            gpu_attention_ns: serial.breakdown.gpu_attention_ns,
            gpu_merge_ns: serial.breakdown.gpu_merge_ns,
            drex_offload_ns: hit_visible * 0.7,
            cxl_ns: hit_visible * 0.3,
        };
        StepReport::from_breakdown(serial.users, serial.context, breakdown)
            .with_offload(visible_components(profile, hit_visible))
            .with_spec(SpecStep {
                chain_ns: drex_layer_ns * layers,
                serial_step_ns: serial.step_ns,
                serial_visible_ns,
                hit_visible_ns: hit_visible,
                refilter_penalty_ns: la.refilter_penalty_ns,
                miss_rate: la.miss_rate,
                slots: la.slots,
                seed: la.seed,
            })
    }

    /// Maximum users limited by DReX capacity and queue depth.
    pub fn drex_max_users(&self, context: usize) -> usize {
        let region = self.region(context).max(1);
        let cap = layout::max_users(
            &self.config.geometry,
            self.model.kv_heads,
            self.model.layers,
            self.model.head_dim,
            region,
        );
        cap.min(REQUEST_QUEUE_DEPTH)
    }
}

impl ServingSystem for LongSightSystem {
    fn name(&self) -> String {
        "LongSight".into()
    }

    fn evaluate(&mut self, users: usize, context: usize) -> Result<StepReport, Infeasible> {
        self.evaluate_with_faults(users, context)
            .map(|(report, _, _)| report)
    }

    fn max_users(&self, context: usize) -> usize {
        let resident = (self.config.hybrid.window + self.config.hybrid.sinks).min(context);
        let mut users = 0usize;
        let cap = self.drex_max_users(context);
        while users < cap
            && longsight_gpu::fits_in_hbm(&self.config.gpu, &self.model, users + 1, resident)
        {
            users += 1;
            if users >= REQUEST_QUEUE_DEPTH {
                break;
            }
        }
        users
    }

    /// LongSight's two-tier page map: window + sink tokens hold HBM pages
    /// carved from the GPU's free memory after weights; everything beyond
    /// the window holds DReX tail pages. Restoring an evicted window moves
    /// its pages back over the CXL link; recomputing it re-runs prefill
    /// over the window on the GPU roofline.
    fn kv_geometry(&self, page_tokens: usize) -> Option<longsight_sched::KvDeviceGeometry> {
        let page_tokens = page_tokens.max(1);
        let cfg = &self.config;
        let window_tokens = cfg.hybrid.window + cfg.hybrid.sinks;
        let page_bytes = self.model.kv_bytes_per_token() * page_tokens;
        if page_bytes == 0 {
            return None;
        }
        let free_hbm = cfg.gpu.hbm_bytes.saturating_sub(self.model.weight_bytes());
        let drex_pages = layout::device_kv_pages(
            &cfg.geometry,
            self.model.kv_heads,
            self.model.layers,
            self.model.head_dim,
            page_tokens,
        );
        // Recompute cost per window token: the prefill roofline over one
        // window, amortized.
        let window_prefill =
            crate::prefill::prefill_cost(&cfg.gpu, &cfg.link, &self.model, window_tokens, 1024)
                .total_ns;
        Some(longsight_sched::KvDeviceGeometry {
            page_tokens,
            window_tokens,
            hbm_capacity_pages: free_hbm / page_bytes,
            drex_capacity_pages: drex_pages,
            restore_ns_per_page: cfg.link.transfer_ns(page_bytes, 0),
            recompute_ns_per_token: window_prefill / window_tokens.max(1) as f64,
        })
    }

    /// Records one decode step's internal timeline: the per-layer serial
    /// GPU work and window attention (`gpu` track), the full offload
    /// pipeline via [`LongSightSystem::drex_layer_traced`], a
    /// `drex.faulted_layer` envelope when fault injection stretches the
    /// layer, and a `layers.remaining` span standing in for the repeated
    /// layers. Observational only — no serving state changes.
    fn record_step_detail(
        &mut self,
        users: usize,
        context: usize,
        rec: &mut Recorder,
        anchor_ns: f64,
    ) {
        if !rec.is_enabled() || users == 0 {
            return;
        }
        let cfg = &self.config;
        let resident = (cfg.hybrid.window + cfg.hybrid.sinks).min(context);
        let layers = self.model.layers as f64;
        let k_merged = if self.region(context) > 0 {
            cfg.hybrid.top_k.min(self.region(context))
        } else {
            0
        };
        let gpu = decode_step(&cfg.gpu, &self.model, users, resident, true, k_merged);
        let gpu_serial_layer = (gpu.weights_ns + gpu.itq_ns + gpu.merge_ns) / layers;
        let attn_layer = gpu.attention_ns / layers;
        let gpu_track = rec.track("gpu");
        rec.leaf_with(
            gpu_track,
            "gpu.serial",
            anchor_ns,
            anchor_ns + gpu_serial_layer,
            &[("users", ArgVal::U(users as u64))],
        );
        rec.leaf_with(
            gpu_track,
            "gpu.window_attn",
            anchor_ns + gpu_serial_layer,
            anchor_ns + gpu_serial_layer + attn_layer,
            &[("resident_tokens", ArgVal::U(resident as u64))],
        );

        let drex_anchor = anchor_ns + gpu_serial_layer;
        let faulted = cfg
            .faults
            .is_enabled()
            .then(|| self.drex_layer_faulty(users, context));
        let fault_span = faulted.as_ref().map(|f| {
            let drex_track = rec.track("drex");
            rec.open_with(
                drex_track,
                "drex.faulted_layer",
                drex_anchor,
                &[
                    ("events", ArgVal::U(f.log.len() as u64)),
                    ("replay_rounds", ArgVal::U(f.replay_rounds as u64)),
                    ("straggled_slices", ArgVal::U(f.straggled_slices as u64)),
                ],
            )
        });
        let (drex_ns, _) = self.drex_layer_traced(users, context, rec, drex_anchor);
        let layer_drex = faulted
            .as_ref()
            .map_or(drex_ns, |f| f.layer_ns.max(drex_ns));
        if let Some(span) = fault_span {
            rec.close(span, drex_anchor + layer_drex);
        }

        let layer_ns = gpu_serial_layer + attn_layer.max(layer_drex);
        if self.model.layers > 1 {
            rec.leaf_with(
                gpu_track,
                "layers.remaining",
                anchor_ns + layer_ns,
                anchor_ns + layer_ns * layers,
                &[("layers", ArgVal::U(self.model.layers as u64 - 1))],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(model: ModelConfig) -> LongSightSystem {
        LongSightSystem::new(LongSightConfig::paper_default(), model)
    }

    #[test]
    fn supports_one_million_token_context() {
        // Headline: 1 GPU + 1 DReX serves 1M-token contexts for both models.
        for model in [ModelConfig::llama3_1b(), ModelConfig::llama3_8b()] {
            let mut s = system(model);
            let r = s.evaluate(1, 1 << 20).expect("1M context must be feasible");
            assert!(r.step_ns > 0.0);
            assert!(s.max_users(1 << 20) >= 1);
        }
    }

    #[test]
    fn offload_scales_sublinearly_with_context() {
        let s = system(ModelConfig::llama3_8b());
        let (t32, _) = s.drex_layer(1, 32_768);
        let (t256, _) = s.drex_layer(1, 262_144);
        assert!(
            t256 < 8.0 * t32,
            "8x context must cost < 8x: {t32} -> {t256}"
        );
        assert!(t256 > t32);
    }

    #[test]
    fn value_transfer_dominates_short_contexts() {
        // Fig 8: short contexts are bottlenecked by value reads over CXL.
        let s = system(ModelConfig::llama3_8b());
        let (_, p) = s.drex_layer(1, 8_192);
        assert!(
            p.value_cxl_ns > p.fetch_score_ns,
            "value CXL {} should dominate fetch {} at 8K",
            p.value_cxl_ns,
            p.fetch_score_ns
        );
        // And the dot-product share grows with context.
        let (_, p2) = s.drex_layer(1, 1 << 20);
        assert!(p2.fetch_score_ns > p.fetch_score_ns * 10.0);
    }

    #[test]
    fn multi_user_contention_appears_beyond_nma_count() {
        let s = system(ModelConfig::llama3_8b());
        let (_, p1) = s.drex_layer(1, 131_072);
        let (_, p64) = s.drex_layer(64, 131_072);
        assert!(
            p64.queue_wait_ns > p1.queue_wait_ns,
            "64 users must queue: {} vs {}",
            p64.queue_wait_ns,
            p1.queue_wait_ns
        );
    }

    #[test]
    fn serves_more_users_than_dense_gpu_at_long_context() {
        let model = ModelConfig::llama3_8b();
        let mut ls = system(model.clone());
        let dense = crate::baselines::GpuOnlySystem {
            gpus: longsight_gpu::DataParallelGpus::new(GpuSpec::h100_sxm(), 1),
            model,
        };
        let ctx = 131_072;
        use crate::report::ServingSystem as _;
        assert!(ls.max_users(ctx) > dense.max_users(ctx));
        let _ = ls.evaluate(4, ctx).unwrap();
    }

    #[test]
    fn throughput_saturates_with_users() {
        // Fig 7: throughput plateaus once DReX is the bottleneck.
        let mut s = system(ModelConfig::llama3_1b());
        let ctx = 262_144;
        let cap = s.max_users(ctx).min(256);
        let mid = s.evaluate((cap / 2).max(1), ctx).unwrap();
        let full = s.evaluate(cap, ctx).unwrap();
        let gain = full.throughput_tps / mid.throughput_tps;
        assert!(
            gain < 2.0,
            "doubling users near saturation must not double throughput (gain {gain})"
        );
        assert!(full.throughput_tps >= mid.throughput_tps * 0.8);
    }

    #[test]
    fn mixed_batch_matches_uniform_when_contexts_equal() {
        let mut s = system(ModelConfig::llama3_8b());
        let uniform = s.evaluate(4, 131_072).unwrap();
        let mixed = s.evaluate_mixed(&[131_072; 4]).unwrap();
        let rel = (mixed.step_ns - uniform.step_ns).abs() / uniform.step_ns;
        assert!(
            rel < 0.05,
            "uniform-context mixed batch should match evaluate(): {} vs {}",
            mixed.step_ns,
            uniform.step_ns
        );
    }

    #[test]
    fn mixed_batch_is_paced_by_the_longest_context() {
        let mut s = system(ModelConfig::llama3_8b());
        let short = s.evaluate_mixed(&[32_768; 4]).unwrap();
        let skewed = s
            .evaluate_mixed(&[32_768, 32_768, 32_768, 524_288])
            .unwrap();
        assert!(
            skewed.step_ns > short.step_ns,
            "one long-context user must slow the synchronized step"
        );
    }

    #[test]
    fn mixed_batch_capacity_uses_summed_footprints() {
        let mut s = system(ModelConfig::llama3_8b());
        // 3 users at 1M fit (max_users(1M) >= 3)…
        assert!(s.evaluate_mixed(&[1 << 20; 3]).is_ok());
        // …but 5 do not.
        assert!(s.evaluate_mixed(&[1 << 20; 5]).is_err());
    }

    #[test]
    fn disabled_faults_change_nothing() {
        let model = ModelConfig::llama3_8b();
        let mut plain = system(model.clone());
        let mut with = LongSightSystem::new(
            LongSightConfig::paper_default().with_faults(FaultProfile::disabled(), 99),
            model,
        );
        let a = plain.evaluate(8, 131_072).unwrap();
        let b = with.evaluate(8, 131_072).unwrap();
        assert_eq!(a, b, "a zero-rate profile must be bit-identical");
        let (c, log, stats) = with.evaluate_with_faults(8, 131_072).unwrap();
        assert_eq!(a, c);
        assert!(log.is_empty());
        assert_eq!(stats, crate::degrade::DegradeStats::default());
    }

    #[test]
    fn faulted_layer_never_beats_clean_and_is_monotone() {
        let model = ModelConfig::llama3_8b();
        let clean = system(model.clone());
        let (clean_ns, _) = clean.drex_layer(8, 131_072);
        let mut prev = clean_ns;
        for rate in [0.02, 0.1, 0.4] {
            let s = LongSightSystem::new(
                LongSightConfig::paper_default().with_faults(FaultProfile::scaled(rate), 5),
                model.clone(),
            );
            let r = s.drex_layer_faulty(8, 131_072);
            assert!(
                r.layer_ns >= prev - 1e-6,
                "rate {rate}: faulted layer got cheaper ({} < {prev})",
                r.layer_ns
            );
            prev = r.layer_ns;
        }
    }

    #[test]
    fn faulted_layer_report_is_deterministic() {
        let model = ModelConfig::llama3_1b();
        let cfg = LongSightConfig::paper_default().with_faults(FaultProfile::severe(), 11);
        let a = LongSightSystem::new(cfg.clone(), model.clone()).drex_layer_faulty(16, 131_072);
        let b = LongSightSystem::new(cfg, model).drex_layer_faulty(16, 131_072);
        assert_eq!(a.layer_ns, b.layer_ns);
        assert_eq!(a.log.to_text(), b.log.to_text());
        assert!(!a.log.is_empty(), "severe profile must inject events");
    }

    #[test]
    fn breakdown_sums_to_step() {
        let mut s = system(ModelConfig::llama3_8b());
        let r = s.evaluate(8, 131_072).unwrap();
        assert!((r.breakdown.total_ns() - r.step_ns).abs() < 1e-3 * r.step_ns);
    }

    #[test]
    fn lookahead_disabled_is_bit_identical() {
        let model = ModelConfig::llama3_8b();
        let mut plain = system(model.clone());
        let mut gated = LongSightSystem::new(
            LongSightConfig::paper_default().with_lookahead(LookaheadConfig::disabled()),
            model,
        );
        let a = plain.evaluate(8, 131_072).unwrap();
        let b = gated.evaluate(8, 131_072).unwrap();
        assert_eq!(a, b, "disabled lookahead changed the step report");
        assert!(a.spec.is_none());
    }

    #[test]
    fn lookahead_hit_path_hides_the_chain_but_keeps_the_serial_bits() {
        let model = ModelConfig::llama3_8b();
        let mut plain = system(model.clone());
        let mut ahead = LongSightSystem::new(
            LongSightConfig::paper_default().with_lookahead(LookaheadConfig::serving_default()),
            model,
        );
        let serial = plain.evaluate(8, 131_072).unwrap();
        let hit = ahead.evaluate(8, 131_072).unwrap();
        let spec = hit.spec.expect("lookahead on must attach SpecStep");

        // The serial path is carried over bit-for-bit for the miss charge.
        assert_eq!(spec.serial_step_ns.to_bits(), serial.step_ns.to_bits());
        // A hit can only hide work, never invent speedup beyond the chain.
        assert!(hit.step_ns <= serial.step_ns);
        assert!(hit.step_ns >= serial.step_ns - spec.chain_ns);
        assert!(spec.hit_visible_ns <= spec.serial_visible_ns);
        assert!(spec.chain_ns >= spec.serial_visible_ns);
        // At the paper default the GPU budget covers the chain entirely.
        assert_eq!(spec.hit_visible_ns, 0.0, "8B/128K chain should hide fully");
    }

    #[test]
    fn issue_and_complete_compose_to_the_fused_layer() {
        let s = system(ModelConfig::llama3_8b());
        let (fused_ns, fused_profile) = s.drex_layer(8, 131_072);
        let mut rec = Recorder::disabled();
        let issued = s
            .drex_layer_issue(8, 131_072, &mut rec, 0.0)
            .expect("non-empty region");
        let (split_ns, split_profile) = s.drex_layer_complete(&issued, &mut rec, 0.0);
        assert_eq!(fused_ns.to_bits(), split_ns.to_bits());
        assert_eq!(fused_profile, split_profile);
        assert!(issued.ready_rel_ns > 0.0 && issued.ready_rel_ns < split_ns);
    }

    #[test]
    fn traced_layer_matches_plain_and_emits_link_and_phase_spans() {
        let s = system(ModelConfig::llama3_8b());
        let (plain_ns, plain_profile) = s.drex_layer(8, 131_072);
        let mut rec = Recorder::enabled();
        let (traced_ns, traced_profile) = s.drex_layer_traced(8, 131_072, &mut rec, 0.0);
        assert_eq!(traced_ns.to_bits(), plain_ns.to_bits());
        assert_eq!(traced_profile, plain_profile);

        let cxl = rec.track("cxl");
        let critical = rec.track("nma.critical");
        let top_level = |track: TrackId| -> Vec<&str> {
            rec.spans()
                .iter()
                .filter(|sp| sp.track == track && sp.parent.is_none())
                .map(|sp| sp.name.as_str())
                .collect()
        };
        assert_eq!(top_level(cxl), ["cxl.submit", "cxl.poll", "cxl.transfer"]);
        assert_eq!(
            top_level(critical),
            [
                "pfu.filter",
                "pfu.bitmap",
                "nma.addr_gen",
                "nma.fetch_score",
                "nma.topk"
            ]
        );
        rec.validate_well_formed().unwrap();

        // Span arguments, read back from the Chrome export.
        let trace = longsight_obs::json::parse(&rec.chrome_trace_json()).unwrap();
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        let arg = |span: &str, key: &str| -> Option<f64> {
            events
                .iter()
                .find(|e| e.get("name").and_then(|n| n.as_str()) == Some(span))?
                .get("args")?
                .get(key)?
                .as_f64()
        };
        let response_bytes = s.response_bytes(s.region(131_072));
        assert_eq!(
            arg("cxl.submit", "bytes"),
            Some(s.descriptor_bytes() as f64)
        );
        assert!(arg("cxl.poll", "ready_at_ns").is_some());
        assert_eq!(arg("cxl.transfer", "bytes"), Some(response_bytes as f64));
        assert_eq!(arg("cxl.transfer", "replays"), Some(0.0));
    }

    #[test]
    fn mixed_batch_hbm_check_clamps_to_the_longest_context() {
        // 480 users at 512 tokens keep 512 resident tokens each, not the
        // full window + sinks, so the batch fits HBM exactly as `evaluate`
        // finds.
        let mut s = system(ModelConfig::llama3_8b());
        assert!(s.evaluate(480, 512).is_ok());
        assert!(s.evaluate_mixed(&[512; 480]).is_ok());
    }
}
