//! Continuous-batching scheduler with SLO classes, chunked prefill, and
//! preemption-by-eviction over the paged KV manager.
//!
//! The scheduler owns the admission/queueing/preemption state machine; the
//! serving loop owns simulated time and step costs. Feasibility questions
//! flow through a callback (`feasible(users, max_ctx)`) so the scheduler
//! stays free of any latency model, and decisions come back as
//! [`SchedEvent`]s for the caller to translate into trace instants.
//!
//! Two policies share the machinery:
//!
//! * [`SchedPolicy::Fifo`] reproduces the legacy serving loop op-for-op:
//!   arrival-order admission by step feasibility, no chunked prefill
//!   (prefill folds into the request's own latency), no preemption. Pages
//!   are tracked but never refuse — admission is the feasibility check.
//! * [`SchedPolicy::SloAware`] admits by the page ledger first (strict
//!   priority with head-of-line order per class), interleaves chunked
//!   prefill with decode steps, and evicts best-effort requests to
//!   DReX-resident state when a higher class cannot get HBM pages, charging
//!   the deterministic restore-or-recompute cost on resume.

use crate::latency::LatencyCounts;
use crate::pages::{PageConfig, PageStats, PagedKvManager};
use crate::request::{SchedRequest, SloClass};

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Legacy arrival-order admission (bit-identical to the pre-scheduler
    /// serving loop).
    Fifo,
    /// SLO-class priority admission with paged-memory admission control,
    /// chunked prefill, and best-effort preemption.
    SloAware,
}

impl SchedPolicy {
    /// Parses a CLI policy name (`fifo` or `slo-aware`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted forms.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "fifo" => Ok(SchedPolicy::Fifo),
            "slo-aware" | "slo_aware" | "sloaware" => Ok(SchedPolicy::SloAware),
            other => Err(format!(
                "invalid scheduler policy '{other}' (use fifo or slo-aware)"
            )),
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::SloAware => "slo-aware",
        }
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Policy.
    pub policy: SchedPolicy,
    /// Page-tier capacities.
    pub pages: PageConfig,
    /// Whether the page ledger refuses allocations (SLO-aware) or only
    /// tracks them (FIFO).
    pub enforce_pages: bool,
    /// Tokens kept HBM-resident per request; larger contexts spill their
    /// tail to DReX pages. `usize::MAX` keeps everything HBM-resident.
    pub window_tokens: usize,
    /// Prefill chunk size in prompt tokens (SLO-aware): each scheduled
    /// chunk contributes `prefill_ns × chunk/context` of work to one step.
    pub prefill_chunk_tokens: usize,
    /// Concurrent requests advancing prefill per step. Must be ≥ 1: a
    /// zero-slot scheduler could never finish a prefill, so callers (the
    /// CLI rejects `--prefill-slots 0` up front) must validate before
    /// constructing the config.
    pub prefill_slots: usize,
    /// Low watermark for resuming preempted requests, as a fraction of HBM
    /// capacity. Eviction triggers at the high watermark
    /// (`pages.hbm_watermark`); a preempted request only resumes once usage
    /// would stay at or under `floor(capacity × low)`. Equal watermarks
    /// (the default) disable hysteresis and reproduce the legacy
    /// evict-at-the-ceiling / resume-at-the-ceiling behavior bit-for-bit.
    pub hbm_low_watermark: f64,
}

impl SchedConfig {
    /// FIFO over an untracked (non-enforcing) page ledger — the legacy
    /// serving semantics.
    pub fn fifo(pages: PageConfig, window_tokens: usize) -> Self {
        Self {
            policy: SchedPolicy::Fifo,
            pages,
            enforce_pages: false,
            window_tokens,
            prefill_chunk_tokens: 8192,
            prefill_slots: 1,
            hbm_low_watermark: pages.hbm_watermark,
        }
    }

    /// SLO-aware over an enforcing page ledger.
    pub fn slo_aware(pages: PageConfig, window_tokens: usize, prefill_chunk_tokens: usize) -> Self {
        Self {
            policy: SchedPolicy::SloAware,
            pages,
            enforce_pages: true,
            window_tokens,
            prefill_chunk_tokens: prefill_chunk_tokens.max(1),
            prefill_slots: 1,
            hbm_low_watermark: pages.hbm_watermark,
        }
    }

    fn hbm_pages_for(&self, context: usize) -> usize {
        self.pages.pages_for(context.min(self.window_tokens))
    }

    fn drex_pages_for(&self, context: usize) -> usize {
        self.pages
            .pages_for(context.saturating_sub(self.window_tokens))
    }

    fn chunk_ns_for(&self, req: &SchedRequest) -> f64 {
        if self.prefill_chunk_tokens >= req.context || req.context == 0 {
            req.prefill_ns
        } else {
            req.prefill_ns * (self.prefill_chunk_tokens as f64 / req.context as f64)
        }
    }
}

/// One request in the running batch.
#[derive(Debug, Clone)]
pub struct ActiveEntry {
    /// The request.
    pub req: SchedRequest,
    /// Output tokens left to decode.
    pub remaining: usize,
    /// Tokens decoded so far (the fault-stream token index).
    pub generated: usize,
    /// Prefill (or resume) work left before this request decodes, ns.
    pub prefill_left_ns: f64,
    /// Whether this member decodes in the step planned by
    /// [`Scheduler::plan_step`].
    pub in_decode: bool,
    /// Whether degradation already released the DReX tail.
    pub window_only: bool,
    chunk_ns: f64,
}

#[derive(Debug, Clone)]
struct Waiting {
    req: SchedRequest,
    remaining: usize,
    generated: usize,
    preempted: bool,
    prefill_left_ns: f64,
    window_only: bool,
}

/// A request evacuated from a crashed replica, carrying its decode
/// progress so the router can place it again elsewhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evacuated {
    /// The request descriptor (original arrival time included, so the
    /// crash's latency cost lands in the request's own tail).
    pub req: SchedRequest,
    /// Output tokens still to decode.
    pub remaining: usize,
    /// Tokens decoded before the crash.
    pub generated: usize,
    /// Prefill work still outstanding at crash time, ns (0 when the
    /// request had already reached decode).
    pub prefill_left_ns: f64,
}

/// A scheduling decision, for the caller to emit as a `sched.*` instant.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedEvent {
    /// A request joined the running batch.
    Admitted {
        /// Request ID.
        id: usize,
        /// SLO class.
        class: SloClass,
    },
    /// A request entered the wait queue.
    Queued {
        /// Request ID.
        id: usize,
        /// SLO class.
        class: SloClass,
    },
    /// A request can never be served and was rejected at arrival.
    Rejected {
        /// Request ID.
        id: usize,
        /// SLO class.
        class: SloClass,
    },
    /// A best-effort request was evicted to DReX-resident state.
    Preempted {
        /// Request ID.
        id: usize,
        /// SLO class.
        class: SloClass,
        /// HBM window pages released by the eviction.
        hbm_pages: usize,
    },
    /// A preempted request rejoined the batch.
    Resumed {
        /// Request ID.
        id: usize,
        /// SLO class.
        class: SloClass,
        /// Resume cost charged before it decodes again, ns.
        cost_ns: f64,
        /// `true` when the window restores from DReX, `false` when it
        /// recomputes on the GPU.
        restored: bool,
    },
    /// A degraded request released its DReX tail pages.
    Degraded {
        /// Request ID.
        id: usize,
        /// DReX pages released.
        drex_pages: usize,
    },
    /// A request finished decoding.
    Completed {
        /// Request ID.
        id: usize,
        /// SLO class.
        class: SloClass,
        /// End-to-end latency, ms.
        latency_ms: f64,
    },
    /// A request died under an injected hard fault.
    Failed {
        /// Request ID.
        id: usize,
        /// SLO class.
        class: SloClass,
    },
}

/// What the next synchronized step looks like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepPlan {
    /// All batch members (decoding + prefilling).
    pub users: usize,
    /// Members decoding this step.
    pub decode_users: usize,
    /// Largest context among decoding members (0 when none decode).
    pub max_decode_ctx: usize,
    /// Total chunked-prefill work sharing this step, ns.
    pub prefill_ns: f64,
    /// Members advancing prefill this step.
    pub prefill_users: usize,
}

/// A request that completed in the step just advanced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Request ID.
    pub id: usize,
    /// SLO class.
    pub class: SloClass,
    /// End-to-end latency (arrival to last token), ms.
    pub latency_ms: f64,
}

#[derive(Debug, Clone, Default)]
struct ClassAccum {
    arrived: usize,
    completed: usize,
    rejected: usize,
    failed: usize,
    preempted: usize,
    tokens: usize,
    token_lat_ms: LatencyCounts,
    request_lat_ms: Vec<f64>,
}

/// Per-class outcome summary.
///
/// Token percentiles are read off exact [`LatencyCounts`]; request
/// percentiles select over the per-request latencies. Both use the **ceil
/// nearest-rank** convention:
/// `sorted[ceil(len × p) - 1]`, the smallest sample with at least `p` of
/// the population at or below it. In particular, p99 over fewer than 100
/// samples is the maximum, and p50 of an even-sized population is the
/// lower median.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassReport {
    /// Requests that arrived in this class.
    pub arrived: usize,
    /// Requests fully served.
    pub completed: usize,
    /// Requests rejected at arrival.
    pub rejected: usize,
    /// Requests killed by hard faults.
    pub failed: usize,
    /// Eviction count (a request may be evicted more than once).
    pub preempted: usize,
    /// Tokens decoded.
    pub tokens: usize,
    /// Median per-token latency, ms.
    pub p50_token_ms: f64,
    /// 99th-percentile per-token latency, ms.
    pub p99_token_ms: f64,
    /// Median end-to-end request latency, ms.
    pub p50_request_ms: f64,
    /// 99th-percentile request latency, ms.
    pub p99_request_ms: f64,
}

/// End-of-run scheduler report: per-class latency percentiles, preemption
/// counters, and the page-ledger audit.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedReport {
    /// Policy that produced this report.
    pub policy: SchedPolicy,
    /// Per-class outcomes, indexed by [`SloClass::index`].
    pub per_class: [ClassReport; 3],
    /// Total evictions.
    pub preemptions: usize,
    /// Total resumes of evicted requests.
    pub resumes: usize,
    /// Total resume cost charged, ns.
    pub restore_charged_ns: f64,
    /// Prefill chunks executed.
    pub prefill_chunks: usize,
    /// Total prefill and resume work this replica executed, ns. Chunked
    /// prefill accumulates per executed chunk; FIFO counts the folded
    /// prefill at immediate admission. The `session_reuse` golden asserts
    /// this falls as prefix reuse rises.
    pub prefill_work_ns: f64,
    /// Final page-ledger usage and peaks.
    pub pages: PageStats,
    /// Pages still held by requests no longer active or queued (must be 0).
    pub leaked_pages: usize,
    /// Token-latency samples the per-class counts hold: the sum over
    /// decode steps of `min(decoding, 64)`, as this scheduler counted it.
    pub token_samples: usize,
    /// The serving loop's own tally of the same sum, kept apart from the
    /// scheduler's counts and attached after [`Scheduler::finalize`];
    /// `None` when no serving loop drove this scheduler. The fleet's
    /// token-conservation audit requires the two to agree.
    pub loop_token_samples: Option<usize>,
    /// First violated page invariant, if any (must be `None`).
    pub invariant_violation: Option<String>,
}

impl SchedReport {
    /// The per-class table as printed by `longsight loadtest --sched`.
    pub fn to_text(&self) -> String {
        let mut out = format!("scheduler report ({} policy)\n", self.policy.name());
        out.push_str(
            "  class        arrived done rej fail evict  tok p50/p99 ms      req p50/p99 ms\n",
        );
        for class in SloClass::ALL {
            let c = &self.per_class[class.index()];
            if c.arrived == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<12} {:>7} {:>4} {:>3} {:>4} {:>5}  {:>7.2}/{:<8.2} {:>8.1}/{:<8.1}\n",
                class.name(),
                c.arrived,
                c.completed,
                c.rejected,
                c.failed,
                c.preempted,
                c.p50_token_ms,
                c.p99_token_ms,
                c.p50_request_ms,
                c.p99_request_ms,
            ));
        }
        out.push_str(&format!(
            "  pages: hbm peak {}/{} | drex peak {}/{} | preemptions {} (resumes {}, restore {:.2} ms) | prefill chunks {} | leaked {}\n",
            self.pages.peak_hbm,
            self.pages.hbm_limit,
            self.pages.peak_drex,
            self.pages.drex_capacity,
            self.preemptions,
            self.resumes,
            self.restore_charged_ns / 1e6,
            self.prefill_chunks,
            self.leaked_pages,
        ));
        if self.pages.prefix_capacity > 0 {
            let pins = self.pages.prefix_hits + self.pages.prefix_misses;
            out.push_str(&format!(
                "  prefix cache: {}/{} pages | pinned {} | hits {}/{} | reclaims {}\n",
                self.pages.prefix_pages,
                self.pages.prefix_capacity,
                self.pages.prefix_pinned,
                self.pages.prefix_hits,
                pins,
                self.pages.prefix_reclaims,
            ));
        }
        out
    }
}

/// Ceil nearest-rank percentile over request latencies: the smallest
/// sample such that at least
/// `p` of the population is ≤ it, i.e. `sorted[ceil(len × p) - 1]` of the
/// ascending order.
///
/// The previous `.round()` nearest-rank collapsed p99 over small samples
/// onto p50-adjacent ranks (and rounded half *up* at p50, picking the
/// upper median); the ceil convention is monotone in `p` and pins p99 of
/// a <100-sample population to the maximum, which is what the SLO tables
/// report.
///
/// The rank is found by O(n) in-place selection, so `samples` need not be
/// sorted and their order afterwards is unspecified. Under `total_cmp` two
/// values compare equal only when their bits are equal, so the selected
/// element has the same bits as the sorted order's element at that rank.
pub(crate) fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = (samples.len() as f64 * p).ceil() as usize;
    *samples
        .select_nth_unstable_by(rank.clamp(1, samples.len()) - 1, f64::total_cmp)
        .1
}

/// The continuous-batching scheduler state machine.
#[derive(Debug, Clone)]
pub struct Scheduler {
    cfg: SchedConfig,
    pages: PagedKvManager,
    /// See [`Scheduler::resume_limit_pages`]; fixed at construction.
    resume_limit: usize,
    active: Vec<ActiveEntry>,
    waiting: Vec<Waiting>,
    chunks: Vec<(usize, f64)>,
    events: Vec<SchedEvent>,
    record_events: bool,
    rejected: usize,
    preemptions: usize,
    resumes: usize,
    restore_charged_ns: f64,
    prefill_chunks: usize,
    prefill_work_ns: f64,
    class: [ClassAccum; 3],
}

impl Scheduler {
    /// Creates a scheduler over `cfg`.
    pub fn new(cfg: SchedConfig) -> Self {
        debug_assert!(
            cfg.prefill_slots >= 1,
            "prefill_slots = 0 can never finish a prefill; validate before construction"
        );
        let pages = PagedKvManager::new(cfg.pages, cfg.enforce_pages);
        let low = PageConfig {
            hbm_watermark: cfg.hbm_low_watermark,
            ..cfg.pages
        };
        Self {
            cfg,
            resume_limit: low.hbm_limit_pages().min(pages.hbm_limit()),
            pages,
            active: Vec::new(),
            waiting: Vec::new(),
            chunks: Vec::new(),
            events: Vec::new(),
            record_events: false,
            rejected: 0,
            preemptions: 0,
            resumes: 0,
            restore_charged_ns: 0.0,
            prefill_chunks: 0,
            prefill_work_ns: 0.0,
            class: Default::default(),
        }
    }

    /// The resume ceiling in pages: `floor(capacity × low_watermark)`,
    /// snapped like [`PageConfig::hbm_limit_pages`] and never above the
    /// eviction (high) limit.
    pub(crate) fn resume_limit_pages(&self) -> usize {
        self.resume_limit
    }

    /// Enables decision-event collection (for trace emission). Events never
    /// influence scheduling, so this cannot perturb the simulated timeline.
    pub fn set_event_recording(&mut self, on: bool) {
        self.record_events = on;
    }

    fn emit(&mut self, ev: SchedEvent) {
        if self.record_events {
            self.events.push(ev);
        }
    }

    /// Drains the decision events accumulated since the last call.
    pub fn take_events(&mut self) -> Vec<SchedEvent> {
        std::mem::take(&mut self.events)
    }

    /// The running batch, in admission order.
    pub fn active(&self) -> &[ActiveEntry] {
        &self.active
    }

    /// Whether the running batch is empty.
    pub fn active_is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Members decoding in the currently planned step (after any deaths).
    pub fn decoding_count(&self) -> usize {
        self.active.iter().filter(|a| a.in_decode).count()
    }

    /// Requests waiting for admission.
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Waiting requests of one class — the admission controller's
    /// queue-depth signal.
    pub fn queue_depth(&self, class: SloClass) -> usize {
        self.waiting.iter().filter(|w| w.req.class == class).count()
    }

    /// Waiting requests of every class in one pass, indexed by
    /// [`SloClass::index`] — the telemetry sampler's per-step snapshot.
    pub fn queue_depths(&self) -> [usize; 3] {
        let mut depths = [0usize; 3];
        for w in &self.waiting {
            depths[w.req.class.index()] += 1;
        }
        depths
    }

    /// A replica crash: every page is lost and every in-flight request —
    /// active or queued — is evacuated for redispatch through the router.
    /// Returns the evacuees sorted by arrival id (the canonical redispatch
    /// order). Arrival/outcome counters stay: the requests did arrive here;
    /// where they end up is the fleet's bookkeeping.
    pub fn crash_evacuate(&mut self) -> Vec<Evacuated> {
        self.chunks.clear();
        let active = std::mem::take(&mut self.active);
        let waiting = std::mem::take(&mut self.waiting);
        let mut out = Vec::with_capacity(active.len() + waiting.len());
        for a in active {
            self.pages.free_all(a.req.id);
            out.push(Evacuated {
                req: a.req,
                remaining: a.remaining,
                generated: a.generated,
                prefill_left_ns: a.prefill_left_ns,
            });
        }
        for w in waiting {
            self.pages.free_all(w.req.id);
            out.push(Evacuated {
                req: w.req,
                remaining: w.remaining,
                generated: w.generated,
                prefill_left_ns: w.prefill_left_ns,
            });
        }
        // Prefix discipline under a crash: each evacuee drops its *pin*
        // (refcount decrement), never the shared frames — a prefix pinned by
        // several sessions must survive any one of them evacuating. Only
        // after every pin is dropped does the wipe reclaim the cache
        // wholesale (the pooled-tier content died with the replica). The
        // evacuees' prefix handles are cleared so the redispatch target
        // never unpins a pin it does not hold.
        for e in &mut out {
            if let Some(h) = e.req.prefix_hash.take() {
                self.pages.prefix_unpin(h);
            }
            e.req.pull_ns = f64::INFINITY;
        }
        self.pages.prefix_crash_clear();
        out.sort_by_key(|e| e.req.id);
        out
    }

    /// Accepts a request evacuated from a crashed replica. The KV state
    /// died with the donor, so the request queues behind a deterministic
    /// rebuild charge: requests caught mid-prefill redo the full prefill,
    /// requests that had reached decode pay the restore-vs-recompute
    /// resume cost from the device geometry.
    pub fn on_redispatch(&mut self, e: Evacuated) {
        self.class[e.req.class.index()].arrived += 1;
        let prefill_left_ns = if e.prefill_left_ns > 0.0 {
            e.req.prefill_ns
        } else {
            e.req.resume_cost_ns()
        };
        self.waiting.push(Waiting {
            req: e.req,
            remaining: e.remaining.max(1),
            generated: e.generated,
            preempted: false,
            prefill_left_ns,
            window_only: false,
        });
        self.emit(SchedEvent::Queued {
            id: e.req.id,
            class: e.req.class,
        });
    }

    /// Requests rejected at arrival.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// The page ledger (for invariant checks in tests).
    pub fn pages(&self) -> &PagedKvManager {
        &self.pages
    }

    /// Mutable page ledger — the fleet driver's handle for arming the
    /// prefix cache and pinning/publishing prefixes at injection time. The
    /// scheduler itself only ever *releases* pins (completion, failure,
    /// crash); taking them is a placement decision that lives upstream.
    pub fn pages_mut(&mut self) -> &mut PagedKvManager {
        &mut self.pages
    }

    /// A point-in-time load snapshot for fleet routing: batch and queue
    /// depth plus page usage against the two tier limits.
    pub fn load(&self) -> crate::router::SchedLoad {
        crate::router::SchedLoad {
            active: self.active.len(),
            waiting: self.waiting.len(),
            hbm_used: self.pages.hbm_used(),
            hbm_limit: self.pages.hbm_limit(),
            drex_used: self.pages.drex_used(),
            drex_capacity: self.cfg.pages.drex_capacity_pages,
        }
    }

    /// Per-class latencies accumulated so far: the exact token-latency
    /// counts (each decode step adds its duration once per counted
    /// decoder, at most 64 per step) and the request-latency samples, in
    /// recording order until [`Scheduler::finalize`] runs and in an
    /// unspecified order after it (its percentile selection permutes them
    /// in place). Fleet roll-ups merge both across replicas and recompute
    /// percentiles over the union — averaging per-replica percentiles
    /// would be wrong.
    pub fn class_samples(&self) -> [(&LatencyCounts, &[f64]); 3] {
        [0, 1, 2].map(|i| {
            (
                &self.class[i].token_lat_ms,
                self.class[i].request_lat_ms.as_slice(),
            )
        })
    }

    fn alloc_tracked(&mut self, id: usize, hbm: usize, drex: usize) {
        // The FIFO ledger is non-enforcing, so this cannot refuse; if a
        // caller misconfigures an enforcing FIFO ledger, the entry is simply
        // not tracked (pages never gate FIFO decisions).
        let _ = self.pages.try_alloc(id, hbm, drex);
    }

    /// Offers an arriving request. `feasible(users, max_ctx)` must answer
    /// whether the system can evaluate a step of that shape.
    ///
    /// FIFO reproduces the legacy loop exactly: join the batch when the
    /// grown batch evaluates at the largest member context (prefill folds
    /// into the request's own latency), reject when even a lone step can
    /// never evaluate, queue otherwise. SLO-aware rejects requests that can
    /// never fit (by feasibility or by page capacity) and queues everything
    /// else; admission happens in [`Scheduler::drain_queue`].
    pub fn on_arrival(
        &mut self,
        req: SchedRequest,
        feasible: &mut dyn FnMut(usize, usize) -> bool,
    ) {
        self.class[req.class.index()].arrived += 1;
        match self.cfg.policy {
            SchedPolicy::Fifo => {
                let max_ctx = self
                    .active
                    .iter()
                    .map(|r| r.req.context)
                    .fold(req.context, usize::max);
                if feasible(self.active.len() + 1, max_ctx) {
                    let mut admitted = req;
                    admitted.arrival_ns -= req.prefill_ns; // fold prefill into latency
                    self.prefill_work_ns += req.prefill_ns;
                    let (hbm, drex) = (
                        self.cfg.hbm_pages_for(req.context),
                        self.cfg.drex_pages_for(req.context),
                    );
                    self.alloc_tracked(admitted.id, hbm, drex);
                    self.active.push(ActiveEntry {
                        req: admitted,
                        remaining: req.output.max(1),
                        generated: 0,
                        prefill_left_ns: 0.0,
                        in_decode: true,
                        window_only: false,
                        chunk_ns: 0.0,
                    });
                    self.emit(SchedEvent::Admitted {
                        id: req.id,
                        class: req.class,
                    });
                } else if !feasible(1, req.context) {
                    self.rejected += 1; // can never be served
                    self.class[req.class.index()].rejected += 1;
                    self.emit(SchedEvent::Rejected {
                        id: req.id,
                        class: req.class,
                    });
                } else {
                    self.waiting.push(Waiting {
                        req,
                        remaining: req.output.max(1),
                        generated: 0,
                        preempted: false,
                        prefill_left_ns: req.prefill_ns,
                        window_only: false,
                    });
                    self.emit(SchedEvent::Queued {
                        id: req.id,
                        class: req.class,
                    });
                }
            }
            SchedPolicy::SloAware => {
                let hbm = self.cfg.hbm_pages_for(req.context);
                let drex = self.cfg.drex_pages_for(req.context);
                let never_fits =
                    hbm > self.pages.hbm_limit() || drex > self.pages.config().drex_capacity_pages;
                if never_fits || !feasible(1, req.context) {
                    self.rejected += 1;
                    self.class[req.class.index()].rejected += 1;
                    self.emit(SchedEvent::Rejected {
                        id: req.id,
                        class: req.class,
                    });
                } else {
                    self.waiting.push(Waiting {
                        req,
                        remaining: req.output.max(1),
                        generated: 0,
                        preempted: false,
                        prefill_left_ns: req.prefill_ns,
                        window_only: false,
                    });
                    self.emit(SchedEvent::Queued {
                        id: req.id,
                        class: req.class,
                    });
                }
            }
        }
    }

    /// Admits waiting requests while capacity allows.
    ///
    /// FIFO scans the queue in arrival order and admits every request whose
    /// grown batch evaluates (the legacy `retain`). SLO-aware repeatedly
    /// picks the highest-priority head (class, then arrival order), admits
    /// it by the page ledger — evicting best-effort requests if a higher
    /// class needs HBM pages — and stops at the first head it cannot place
    /// (strict head-of-line, so a lower class can never slip past a blocked
    /// higher class).
    pub fn drain_queue(&mut self, feasible: &mut dyn FnMut(usize, usize) -> bool) {
        match self.cfg.policy {
            SchedPolicy::Fifo => {
                let mut queue = std::mem::take(&mut self.waiting);
                queue.retain(|w| {
                    let max_ctx = self
                        .active
                        .iter()
                        .map(|r| r.req.context)
                        .fold(w.req.context, usize::max);
                    if feasible(self.active.len() + 1, max_ctx) {
                        // Legacy semantics: queue-admitted requests join
                        // decode directly (their prefill was not folded).
                        let (hbm, drex) = (
                            self.cfg.hbm_pages_for(w.req.context),
                            self.cfg.drex_pages_for(w.req.context),
                        );
                        self.alloc_tracked(w.req.id, hbm, drex);
                        self.active.push(ActiveEntry {
                            req: w.req,
                            remaining: w.remaining,
                            generated: w.generated,
                            prefill_left_ns: 0.0,
                            in_decode: true,
                            window_only: false,
                            chunk_ns: 0.0,
                        });
                        self.emit(SchedEvent::Admitted {
                            id: w.req.id,
                            class: w.req.class,
                        });
                        false
                    } else {
                        true
                    }
                });
                self.waiting = queue;
            }
            SchedPolicy::SloAware => {
                while let Some(pick) = (0..self.waiting.len())
                    .min_by_key(|&i| (self.waiting[i].req.class.index(), self.waiting[i].req.id))
                {
                    if !self.try_admit(pick, feasible) {
                        break;
                    }
                }
            }
        }
    }

    /// Attempts to place `self.waiting[pick]` (SLO-aware). Returns whether
    /// it was admitted (and removed from the queue).
    fn try_admit(&mut self, pick: usize, feasible: &mut dyn FnMut(usize, usize) -> bool) -> bool {
        let req = self.waiting[pick].req;
        let need_hbm = self.cfg.hbm_pages_for(req.context);
        // Memory decision first: evict best-effort members if a higher
        // class cannot get its window pages under the watermark.
        while !self.pages.hbm_fits(need_hbm) && req.class != SloClass::BestEffort {
            let Some(victim) = self
                .active
                .iter()
                .rposition(|a| a.req.class == SloClass::BestEffort)
            else {
                break;
            };
            self.evict(victim);
        }
        if !self.pages.hbm_fits(need_hbm) {
            return false;
        }
        // Hysteresis: a preempted request resumes only when usage stays at
        // or under the low watermark, so an eviction at the ceiling is not
        // immediately undone by a resume back to the ceiling (ping-pong).
        // With equal watermarks this is exactly the hbm_fits check above.
        if self.waiting[pick].preempted
            && self.pages.hbm_used() + need_hbm > self.resume_limit_pages()
        {
            return false;
        }
        if !self.waiting[pick].preempted
            && !self.pages.drex_fits(self.cfg.drex_pages_for(req.context))
        {
            return false;
        }
        // Feasibility belt: never admit a batch the step model cannot
        // evaluate (e.g. the DCC queue depth).
        let max_ctx = self
            .active
            .iter()
            .map(|r| r.req.context)
            .fold(req.context, usize::max);
        if !feasible(self.active.len() + 1, max_ctx) {
            return false;
        }

        // Allocate before dequeuing so a refused ledger (already checked
        // above, so only reachable through ledger drift) degrades to "stays
        // queued" instead of a panic.
        if self.waiting[pick].preempted {
            if self.pages.regain_hbm(req.id, need_hbm).is_err() {
                return false;
            }
        } else if self
            .pages
            .try_alloc(req.id, need_hbm, self.cfg.drex_pages_for(req.context))
            .is_err()
        {
            return false;
        }

        let w = self.waiting.remove(pick);
        if w.preempted {
            let cost = w.req.resume_cost_ns();
            self.resumes += 1;
            self.restore_charged_ns += cost;
            self.active.push(ActiveEntry {
                req: w.req,
                remaining: w.remaining,
                generated: w.generated,
                prefill_left_ns: w.prefill_left_ns + cost,
                in_decode: false,
                window_only: w.window_only,
                chunk_ns: self.cfg.chunk_ns_for(&w.req),
            });
            self.emit(SchedEvent::Resumed {
                id: w.req.id,
                class: w.req.class,
                cost_ns: cost,
                restored: w.req.resume_restores(),
            });
        } else {
            self.active.push(ActiveEntry {
                req: w.req,
                remaining: w.remaining,
                generated: w.generated,
                prefill_left_ns: w.prefill_left_ns,
                in_decode: false,
                window_only: w.window_only,
                chunk_ns: self.cfg.chunk_ns_for(&w.req),
            });
            self.emit(SchedEvent::Admitted {
                id: w.req.id,
                class: w.req.class,
            });
        }
        true
    }

    /// Evicts `self.active[pos]` to DReX-resident state.
    fn evict(&mut self, pos: usize) {
        let a = self.active.remove(pos);
        let freed = self.pages.release_hbm(a.req.id);
        self.preemptions += 1;
        self.class[a.req.class.index()].preempted += 1;
        self.waiting.push(Waiting {
            req: a.req,
            remaining: a.remaining,
            generated: a.generated,
            preempted: true,
            prefill_left_ns: a.prefill_left_ns,
            window_only: a.window_only,
        });
        self.emit(SchedEvent::Preempted {
            id: a.req.id,
            class: a.req.class,
            hbm_pages: freed,
        });
    }

    /// Plans the next synchronized step: who decodes, who advances prefill,
    /// and how much chunked-prefill work shares the step.
    pub fn plan_step(&mut self) -> StepPlan {
        self.chunks.clear();
        match self.cfg.policy {
            SchedPolicy::Fifo => {
                for a in &mut self.active {
                    a.in_decode = true;
                }
                let users = self.active.len();
                let max_ctx = self.active.iter().map(|r| r.req.context).max().unwrap_or(0);
                StepPlan {
                    users,
                    decode_users: users,
                    max_decode_ctx: max_ctx,
                    prefill_ns: 0.0,
                    prefill_users: 0,
                }
            }
            SchedPolicy::SloAware => {
                let mut decode_users = 0usize;
                let mut max_ctx = 0usize;
                for a in &mut self.active {
                    a.in_decode = a.prefill_left_ns <= 0.0;
                    if a.in_decode {
                        decode_users += 1;
                        max_ctx = max_ctx.max(a.req.context);
                    }
                }
                let mut slots = self.cfg.prefill_slots;
                let mut prefill_ns = 0.0f64;
                let mut prefill_users = 0usize;
                for a in &self.active {
                    if slots == 0 {
                        break;
                    }
                    if !a.in_decode {
                        // A zero-prefill request can still owe resume cost;
                        // drain it in one chunk rather than stalling.
                        let budget = if a.chunk_ns > 0.0 {
                            a.chunk_ns
                        } else {
                            a.prefill_left_ns
                        };
                        let chunk = budget.min(a.prefill_left_ns);
                        self.chunks.push((a.req.id, chunk));
                        prefill_ns += chunk;
                        prefill_users += 1;
                        slots -= 1;
                    }
                }
                StepPlan {
                    users: self.active.len(),
                    decode_users,
                    max_decode_ctx: max_ctx,
                    prefill_ns,
                    prefill_users,
                }
            }
        }
    }

    /// Removes hard-failed requests from the batch, freeing their pages.
    pub fn remove_failed(&mut self, dead: &[usize]) {
        if dead.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.active.len() {
            if dead.contains(&self.active[i].req.id) {
                let a = self.active.remove(i);
                self.pages.free_all(a.req.id);
                if let Some(h) = a.req.prefix_hash {
                    self.pages.prefix_unpin(h);
                }
                self.class[a.req.class.index()].failed += 1;
                self.emit(SchedEvent::Failed {
                    id: a.req.id,
                    class: a.req.class,
                });
            } else {
                i += 1;
            }
        }
    }

    /// A degraded request abandons its long-range tail: release its DReX
    /// pages (idempotent per request).
    pub fn on_degraded(&mut self, id: usize) {
        let Some(i) = self.active.iter().position(|a| a.req.id == id) else {
            return;
        };
        if self.active[i].window_only {
            return;
        }
        self.active[i].window_only = true;
        let freed = self.pages.release_drex(id);
        self.emit(SchedEvent::Degraded {
            id,
            drex_pages: freed,
        });
    }

    /// Applies one step of duration `dt` ending at simulated time `now`:
    /// chunked prefill advances, decoding members emit one token each, and
    /// finished requests retire (freeing their pages). Returns completions
    /// in batch order.
    pub fn advance_step(&mut self, dt: f64, now: f64) -> Vec<Completion> {
        let chunks = std::mem::take(&mut self.chunks);
        for (id, chunk) in chunks {
            if let Some(a) = self.active.iter_mut().find(|a| a.req.id == id) {
                a.prefill_left_ns -= chunk;
                if a.prefill_left_ns <= 1e-6 {
                    a.prefill_left_ns = 0.0;
                }
                self.prefill_chunks += 1;
                self.prefill_work_ns += chunk;
            }
        }
        // Per-class token latencies: the first 64 decoders in batch order
        // count, like the global serving histogram, and each class adds
        // the step's duration once with its count.
        let mut counted = [0usize; 3];
        let mut total = 0usize;
        for i in 0..self.active.len() {
            if !self.active[i].in_decode {
                continue;
            }
            let cls = self.active[i].req.class.index();
            if total < 64 {
                counted[cls] += 1;
                total += 1;
            }
            self.class[cls].tokens += 1;
            self.active[i].remaining -= 1;
            self.active[i].generated += 1;
        }
        for (acc, &n) in self.class.iter_mut().zip(&counted) {
            acc.token_lat_ms.add(dt / 1e6, n);
        }
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].remaining == 0 {
                let a = self.active.remove(i);
                let latency_ms = (now - a.req.arrival_ns) / 1e6;
                self.pages.free_all(a.req.id);
                if let Some(h) = a.req.prefix_hash {
                    self.pages.prefix_unpin(h);
                }
                let cls = a.req.class.index();
                self.class[cls].completed += 1;
                self.class[cls].request_lat_ms.push(latency_ms);
                self.emit(SchedEvent::Completed {
                    id: a.req.id,
                    class: a.req.class,
                    latency_ms,
                });
                done.push(Completion {
                    id: a.req.id,
                    class: a.req.class,
                    latency_ms,
                });
            } else {
                i += 1;
            }
        }
        done
    }

    /// Builds the end-of-run report, auditing the page ledger: every page
    /// still held must belong to a request that is still active or waiting.
    pub fn finalize(&mut self) -> SchedReport {
        let mut leaked = 0usize;
        for id in self.pages.holder_ids() {
            let live = self.active.iter().any(|a| a.req.id == id)
                || self.waiting.iter().any(|w| w.req.id == id);
            if !live {
                let (h, d) = self.pages.pages_of(id).unwrap_or((0, 0));
                leaked += h + d;
            }
        }
        let mut invariant_violation = self.pages.check_invariants().err();
        // Refcount ≡ live sessions: every outstanding prefix pin must be
        // held by a request that is still active or waiting, one pin each.
        if invariant_violation.is_none() && self.pages.prefix_capacity() > 0 {
            let live_pins = self
                .active
                .iter()
                .filter(|a| a.req.prefix_hash.is_some())
                .count()
                + self
                    .waiting
                    .iter()
                    .filter(|w| w.req.prefix_hash.is_some())
                    .count();
            let refs = self.pages.prefix_pinned_refs();
            if refs != live_pins {
                invariant_violation = Some(format!(
                    "prefix pin drift: {refs} refs held vs {live_pins} live pinned requests"
                ));
            }
        }
        let mut per_class: [ClassReport; 3] = Default::default();
        for (out, acc) in per_class.iter_mut().zip(self.class.iter_mut()) {
            *out = ClassReport {
                arrived: acc.arrived,
                completed: acc.completed,
                rejected: acc.rejected,
                failed: acc.failed,
                preempted: acc.preempted,
                tokens: acc.tokens,
                p50_token_ms: acc.token_lat_ms.quantile_ceil(0.5),
                p99_token_ms: acc.token_lat_ms.quantile_ceil(0.99),
                p50_request_ms: percentile(&mut acc.request_lat_ms, 0.5),
                p99_request_ms: percentile(&mut acc.request_lat_ms, 0.99),
            };
        }
        SchedReport {
            policy: self.cfg.policy,
            per_class,
            preemptions: self.preemptions,
            resumes: self.resumes,
            restore_charged_ns: self.restore_charged_ns,
            prefill_chunks: self.prefill_chunks,
            prefill_work_ns: self.prefill_work_ns,
            pages: self.pages.stats(),
            leaked_pages: leaked,
            token_samples: self.class.iter().map(|c| c.token_lat_ms.len()).sum(),
            loop_token_samples: None,
            invariant_violation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SloMix;

    fn req(id: usize, class: SloClass, context: usize, output: usize) -> SchedRequest {
        SchedRequest {
            id,
            class,
            arrival_ns: id as f64 * 1000.0,
            context,
            output,
            prefill_ns: 1e5,
            restore_ns: 1e4,
            recompute_ns: 5e4,
            pull_ns: f64::INFINITY,
            prefix_hash: None,
        }
    }

    fn slo_cfg() -> SchedConfig {
        SchedConfig::slo_aware(
            PageConfig {
                page_tokens: 1024,
                hbm_capacity_pages: 4,
                drex_capacity_pages: 1000,
                hbm_watermark: 1.0,
            },
            1024, // one HBM page per request
            8192,
        )
    }

    #[test]
    fn fifo_admits_in_arrival_order() {
        let mut s = Scheduler::new(SchedConfig::fifo(PageConfig::unbounded(1024), 1024));
        let mut feas = |users: usize, _ctx: usize| users <= 2;
        s.on_arrival(req(0, SloClass::Interactive, 4096, 4), &mut feas);
        s.on_arrival(req(1, SloClass::Interactive, 4096, 4), &mut feas);
        s.on_arrival(req(2, SloClass::Interactive, 4096, 4), &mut feas);
        assert_eq!(s.active().len(), 2);
        assert_eq!(s.waiting_len(), 1);
        // Pages tracked even though never enforced.
        assert_eq!(s.pages().hbm_used(), 2);
        let plan = s.plan_step();
        assert_eq!(plan.decode_users, 2);
        assert_eq!(plan.prefill_ns, 0.0);
    }

    #[test]
    fn fifo_rejects_the_never_servable() {
        let mut s = Scheduler::new(SchedConfig::fifo(PageConfig::unbounded(1024), 1024));
        let mut feas = |_users: usize, ctx: usize| ctx <= 8192;
        s.on_arrival(req(0, SloClass::Interactive, 100_000, 4), &mut feas);
        assert_eq!(s.rejected(), 1);
        assert_eq!(s.active().len(), 0);
    }

    #[test]
    fn slo_admission_is_a_memory_decision() {
        // 4 HBM pages, 1 page per request: the 5th stays queued even though
        // the step model would accept it.
        let mut s = Scheduler::new(slo_cfg());
        let mut feas = |_u: usize, _c: usize| true;
        for i in 0..5 {
            s.on_arrival(req(i, SloClass::Interactive, 1024, 4), &mut feas);
        }
        s.drain_queue(&mut feas);
        assert_eq!(s.active().len(), 4);
        assert_eq!(s.waiting_len(), 1);
        assert_eq!(s.pages().hbm_used(), 4);
    }

    #[test]
    fn interactive_evicts_best_effort_for_hbm() {
        let mut s = Scheduler::new(slo_cfg());
        let mut feas = |_u: usize, _c: usize| true;
        for i in 0..4 {
            s.on_arrival(req(i, SloClass::BestEffort, 4096, 8), &mut feas);
        }
        s.drain_queue(&mut feas);
        assert_eq!(s.active().len(), 4);
        // An interactive arrival must displace the most recent best-effort
        // member, which keeps its DReX tail while waiting.
        s.on_arrival(req(9, SloClass::Interactive, 4096, 8), &mut feas);
        s.drain_queue(&mut feas);
        let classes: Vec<SloClass> = s.active().iter().map(|a| a.req.class).collect();
        assert!(classes.contains(&SloClass::Interactive));
        assert_eq!(s.active().len(), 4);
        assert_eq!(s.waiting_len(), 1);
        let rep = s.finalize();
        assert_eq!(rep.preemptions, 1);
        assert_eq!(rep.leaked_pages, 0);
        assert_eq!(rep.invariant_violation, None);
        // The evicted request still holds its DReX tail (3 pages of 3072
        // non-window tokens), but no HBM.
        let evicted = rep.pages.holders;
        assert_eq!(evicted, 5); // 4 active + 1 preempted
    }

    #[test]
    fn best_effort_never_evicts_best_effort() {
        let mut s = Scheduler::new(slo_cfg());
        let mut feas = |_u: usize, _c: usize| true;
        for i in 0..5 {
            s.on_arrival(req(i, SloClass::BestEffort, 4096, 8), &mut feas);
        }
        s.drain_queue(&mut feas);
        assert_eq!(s.active().len(), 4);
        assert_eq!(s.waiting_len(), 1);
        assert_eq!(s.finalize().preemptions, 0);
    }

    #[test]
    fn resume_charges_the_cheaper_of_restore_and_recompute() {
        let mut s = Scheduler::new(slo_cfg());
        let mut feas = |_u: usize, _c: usize| true;
        let mut be = req(0, SloClass::BestEffort, 4096, 8);
        be.prefill_ns = 0.0; // decodes immediately once admitted
        s.on_arrival(be, &mut feas);
        s.drain_queue(&mut feas);
        // Fill HBM so the interactive arrival forces an eviction.
        for i in 1..4 {
            s.on_arrival(req(i, SloClass::Interactive, 1024, 8), &mut feas);
        }
        s.on_arrival(req(4, SloClass::Interactive, 4096, 8), &mut feas);
        s.drain_queue(&mut feas);
        let rep_mid = s.pages().stats();
        assert!(rep_mid.hbm_used <= 4);
        // Retire the interactive requests so the best-effort one resumes.
        let mut now = 0.0;
        for _ in 0..64 {
            s.drain_queue(&mut feas);
            if s.active_is_empty() {
                break;
            }
            let _ = s.plan_step();
            now += 1e6;
            let _ = s.advance_step(1e6, now);
        }
        let rep = s.finalize();
        assert_eq!(rep.preemptions, 1);
        assert_eq!(rep.resumes, 1);
        assert_eq!(rep.restore_charged_ns, 1e4); // restore_ns < recompute_ns
        assert_eq!(rep.leaked_pages, 0);
        assert_eq!(rep.per_class[SloClass::BestEffort.index()].completed, 1);
    }

    #[test]
    fn chunked_prefill_shares_steps() {
        let mut s = Scheduler::new(slo_cfg());
        let mut feas = |_u: usize, _c: usize| true;
        // 16K context with 8K chunks: two chunks to finish prefill.
        let mut r = req(0, SloClass::Interactive, 16_384, 2);
        r.prefill_ns = 2e6;
        let mut cfg_probe = slo_cfg();
        cfg_probe.pages.hbm_capacity_pages = 100;
        let mut s2 = Scheduler::new(cfg_probe);
        let _ = &mut s;
        s2.on_arrival(r, &mut feas);
        s2.drain_queue(&mut feas);
        let p1 = s2.plan_step();
        assert_eq!(p1.decode_users, 0);
        assert_eq!(p1.prefill_users, 1);
        assert!((p1.prefill_ns - 1e6).abs() < 1e-6); // half the prefill
        let _ = s2.advance_step(p1.prefill_ns, 1e6);
        let p2 = s2.plan_step();
        assert_eq!(p2.prefill_users, 1);
        let _ = s2.advance_step(p2.prefill_ns, 2e6);
        let p3 = s2.plan_step();
        assert_eq!(p3.decode_users, 1, "prefill finished after two chunks");
        let rep = s2.finalize();
        assert_eq!(rep.prefill_chunks, 2);
    }

    #[test]
    fn degradation_releases_the_tail() {
        let mut s = Scheduler::new(slo_cfg());
        let mut feas = |_u: usize, _c: usize| true;
        s.on_arrival(req(0, SloClass::Interactive, 4096, 8), &mut feas);
        s.drain_queue(&mut feas);
        let before = s.pages().drex_used();
        assert!(before > 0);
        s.on_degraded(0);
        assert_eq!(s.pages().drex_used(), 0);
        s.on_degraded(0); // idempotent
        assert_eq!(s.pages().drex_used(), 0);
    }

    #[test]
    fn percentile_uses_ceil_nearest_rank() {
        // p99 over any sample smaller than 100 must be the maximum: with
        // the old `.round()` convention a 4-sample p99 landed on index
        // round(3 × 0.99) = 3 (correct) but a 50-sample p99 landed on
        // round(49 × 0.99) = 49 only by luck of rounding — and p50 of an
        // even population rounded *up* to the upper median.
        let mut four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&mut four, 0.99), 4.0);
        assert_eq!(percentile(&mut four, 0.5), 2.0, "lower median");
        assert_eq!(percentile(&mut four, 1.0), 4.0);
        assert_eq!(percentile(&mut four, 0.0), 1.0, "rank clamps to 1");
        let mut one = [7.0];
        assert_eq!(percentile(&mut one, 0.5), 7.0);
        assert_eq!(percentile(&mut one, 0.99), 7.0);
        assert_eq!(percentile(&mut [], 0.99), 0.0);
        // 50 samples: ceil(50 × 0.99) = 50 → the maximum, and
        // ceil(50 × 0.5) = 25 → the lower median.
        let mut fifty: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        assert_eq!(percentile(&mut fifty, 0.99), 50.0);
        assert_eq!(percentile(&mut fifty, 0.5), 25.0);
        // Monotone in p.
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let v = percentile(&mut fifty, i as f64 / 20.0);
            assert!(v >= last);
            last = v;
        }
    }

    /// Random populations for the percentile property tests: plain values,
    /// heavy duplicates, IEEE special values and raw bit patterns.
    fn percentile_populations() -> Vec<Vec<f64>> {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
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
        let mut out = Vec::new();
        for len in [0, 1, 2, 99, 100, 10_000] {
            let mut plain = Vec::with_capacity(len);
            let mut dups = Vec::with_capacity(len);
            let mut special = Vec::with_capacity(len);
            let mut bits = Vec::with_capacity(len);
            for _ in 0..len {
                plain.push((next() >> 11) as f64 / (1u64 << 53) as f64 * 1e3);
                dups.push((next() % 3) as f64);
                special.push(specials[(next() % specials.len() as u64) as usize]);
                bits.push(f64::from_bits(next()));
            }
            out.extend([plain, dups, special, bits]);
        }
        out
    }

    #[test]
    fn percentile_selection_matches_sort_then_index() {
        for pop in percentile_populations() {
            let mut sorted = pop.clone();
            sorted.sort_by(f64::total_cmp);
            // Successive selections on one slice, as the roll-ups run them.
            let mut v = pop.clone();
            for p in [0.0, 0.5, 0.99, 1.0] {
                let want = if sorted.is_empty() {
                    0.0
                } else {
                    let rank = (sorted.len() as f64 * p).ceil() as usize;
                    sorted[rank.clamp(1, sorted.len()) - 1]
                };
                let got = percentile(&mut v, p);
                assert_eq!(got.to_bits(), want.to_bits(), "n {} p {p}", pop.len());
            }
        }
    }

    #[test]
    fn crash_evacuate_drains_everything_and_frees_all_pages() {
        let mut s = Scheduler::new(slo_cfg());
        let mut feas = |_u: usize, _c: usize| true;
        for i in 0..6 {
            s.on_arrival(req(i, SloClass::Interactive, 1024, 4), &mut feas);
        }
        s.drain_queue(&mut feas);
        assert_eq!(s.active().len(), 4);
        assert_eq!(s.waiting_len(), 2);
        assert_eq!(s.queue_depth(SloClass::Interactive), 2);
        assert_eq!(s.queue_depth(SloClass::Batch), 0);
        let evac = s.crash_evacuate();
        assert_eq!(evac.len(), 6);
        // Canonical order: sorted by arrival id.
        let ids: Vec<usize> = evac.iter().map(|e| e.req.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert!(s.active_is_empty());
        assert_eq!(s.waiting_len(), 0);
        assert_eq!(s.pages().hbm_used(), 0);
        assert_eq!(s.pages().drex_used(), 0);
        let rep = s.finalize();
        assert_eq!(rep.leaked_pages, 0);
        assert_eq!(rep.invariant_violation, None);
        // Arrivals stay counted where they landed.
        assert_eq!(rep.per_class[SloClass::Interactive.index()].arrived, 6);
    }

    #[test]
    fn redispatch_charges_rebuild_cost_and_counts_an_arrival() {
        let mut donor = Scheduler::new(slo_cfg());
        let mut feas = |_u: usize, _c: usize| true;
        // One request that reached decode, one caught mid-prefill.
        let mut decoded = req(0, SloClass::Interactive, 1024, 8);
        decoded.prefill_ns = 0.0;
        donor.on_arrival(decoded, &mut feas);
        // 16K context over 8K chunks: still mid-prefill after one step.
        let mut mid = req(1, SloClass::Batch, 16_384, 8);
        mid.prefill_ns = 2e6;
        donor.on_arrival(mid, &mut feas);
        donor.drain_queue(&mut feas);
        let _ = donor.plan_step();
        let _ = donor.advance_step(1e6, 1e6); // id 0 decodes one token
        let evac = donor.crash_evacuate();
        assert_eq!(evac.len(), 2);
        assert_eq!(evac[0].generated, 1);
        assert!(evac[1].prefill_left_ns > 0.0, "still mid-prefill");

        let mut target = Scheduler::new(slo_cfg());
        for e in &evac {
            target.on_redispatch(*e);
        }
        assert_eq!(target.waiting_len(), 2);
        target.drain_queue(&mut feas);
        assert_eq!(target.active().len(), 2);
        // The decoded request pays the resume cost (restore < recompute in
        // this fixture); the mid-prefill one redoes its full prefill.
        let a0 = &target.active()[0];
        assert_eq!(a0.req.id, 0);
        assert_eq!(a0.prefill_left_ns, evac[0].req.resume_cost_ns());
        let a1 = &target.active()[1];
        assert_eq!(a1.req.id, 1);
        assert_eq!(a1.prefill_left_ns, evac[1].req.prefill_ns);
        let rep = target.finalize();
        assert_eq!(rep.per_class[SloClass::Interactive.index()].arrived, 1);
        assert_eq!(rep.per_class[SloClass::Batch.index()].arrived, 1);
    }

    #[test]
    fn mix_classification_is_exhaustive() {
        let m = SloMix::mixed();
        for i in 0..100 {
            let _ = m.classify(i as f64 / 100.0);
        }
    }

    /// Drives one evict→complete→drain cycle at ±1 page around the HBM
    /// ceiling and reports (preemptions, resumes) — the ping-pong probe.
    fn ping_pong_cycle(low_watermark: f64) -> (usize, usize) {
        let mut cfg = slo_cfg(); // 4 pages, 1 page per request
        cfg.hbm_low_watermark = low_watermark;
        let mut s = Scheduler::new(cfg);
        let mut feas = |_u: usize, _c: usize| true;
        // Fill to the ceiling: 3 interactive + 1 best-effort, all decoding.
        for i in 0..3 {
            let mut r = req(i, SloClass::Interactive, 1024, 8);
            r.prefill_ns = 0.0;
            s.on_arrival(r, &mut feas);
        }
        let mut be = req(3, SloClass::BestEffort, 1024, 8);
        be.prefill_ns = 0.0;
        s.on_arrival(be, &mut feas);
        s.drain_queue(&mut feas);
        assert_eq!(s.pages().hbm_used(), 4, "at the ceiling");
        // +1 page: an interactive arrival evicts the best-effort member.
        let mut hot = req(4, SloClass::Interactive, 1024, 1);
        hot.prefill_ns = 0.0;
        s.on_arrival(hot, &mut feas);
        s.drain_queue(&mut feas);
        assert_eq!(s.pages().hbm_used(), 4);
        // -1 page: the one-token request completes, dropping usage to 3.
        let _ = s.plan_step();
        let _ = s.advance_step(1e6, 1e6);
        assert_eq!(s.pages().hbm_used(), 3);
        // The boundary decision: may the evicted best-effort member resume
        // right back to the ceiling?
        s.drain_queue(&mut feas);
        // Another +1-page interactive arrival probes for a second eviction.
        let mut hot2 = req(5, SloClass::Interactive, 1024, 1);
        hot2.prefill_ns = 0.0;
        s.on_arrival(hot2, &mut feas);
        s.drain_queue(&mut feas);
        let rep = s.finalize();
        assert_eq!(rep.leaked_pages, 0);
        assert_eq!(rep.invariant_violation, None);
        (rep.preemptions, rep.resumes)
    }

    #[test]
    fn hysteresis_stops_evict_resume_ping_pong_at_the_ceiling() {
        // Equal watermarks (legacy): the evicted request resumes into the
        // freed page and the next arrival evicts it again — ping-pong.
        assert_eq!(ping_pong_cycle(1.0), (2, 1));
        // Low watermark 0.75 (3 of 4 pages): resuming to 4 pages overshoots
        // the low limit, so the request stays parked and the next arrival
        // admits into the free page without a second eviction.
        assert_eq!(ping_pong_cycle(0.75), (1, 0));
    }

    #[test]
    fn low_watermark_equal_to_high_is_inert() {
        let cfg = slo_cfg();
        assert_eq!(cfg.hbm_low_watermark, cfg.pages.hbm_watermark);
        let limit = cfg.pages.hbm_limit_pages();
        assert_eq!(Scheduler::new(cfg).resume_limit_pages(), limit);
    }

    #[test]
    fn completion_unpins_and_crash_drops_pins_not_shared_frames() {
        let mut cfg = slo_cfg();
        cfg.pages.hbm_capacity_pages = 16;
        let mut s = Scheduler::new(cfg);
        s.pages_mut().set_prefix_capacity(32);
        assert!(s.pages_mut().prefix_insert(0xbeef, 4));
        let mut feas = |_u: usize, _c: usize| true;
        // Two sessions share the same prefix; a third request is cold.
        for id in 0..2 {
            s.pages_mut().prefix_pin(0xbeef);
            let mut r = req(id, SloClass::Interactive, 1024, 2);
            r.prefix_hash = Some(0xbeef);
            r.prefill_ns = 0.0;
            s.on_arrival(r, &mut feas);
        }
        s.on_arrival(req(2, SloClass::Interactive, 1024, 2), &mut feas);
        s.drain_queue(&mut feas);
        assert_eq!(s.pages().prefix_pinned_refs(), 2);

        // Completion drops exactly one pin; the shared frames stay cached.
        let mut now = 0.0;
        let mut done = 0usize;
        for _ in 0..16 {
            s.drain_queue(&mut feas);
            if s.active_is_empty() {
                break;
            }
            let _ = s.plan_step();
            now += 1e6;
            done += s.advance_step(1e6, now).len();
        }
        assert_eq!(done, 3);
        assert_eq!(s.pages().prefix_pinned_refs(), 0);
        assert_eq!(s.pages().prefix_lookup(0xbeef), Some(4));
        let rep = s.finalize();
        assert_eq!(rep.invariant_violation, None, "refcount ≡ live sessions");
        assert!(rep.prefill_work_ns >= 0.0);
    }

    #[test]
    fn crash_evacuate_unpins_each_evacuee_once_and_wipes_the_cache() {
        let mut cfg = slo_cfg();
        cfg.pages.hbm_capacity_pages = 16;
        let mut s = Scheduler::new(cfg);
        s.pages_mut().set_prefix_capacity(32);
        assert!(s.pages_mut().prefix_insert(0xcafe, 8));
        let mut feas = |_u: usize, _c: usize| true;
        for id in 0..3 {
            s.pages_mut().prefix_pin(0xcafe);
            let mut r = req(id, SloClass::Interactive, 1024, 4);
            r.prefix_hash = Some(0xcafe);
            s.on_arrival(r, &mut feas);
        }
        s.drain_queue(&mut feas);
        assert_eq!(s.pages().prefix_pinned_refs(), 3);
        let evac = s.crash_evacuate();
        assert_eq!(evac.len(), 3);
        // Pins dropped one per evacuee (never a double-free of the shared
        // frames), then the cache wiped; the evacuees carry no stale pin
        // handle into their redispatch target.
        assert_eq!(s.pages().prefix_pinned_refs(), 0);
        assert_eq!(s.pages().prefix_lookup(0xcafe), None);
        for e in &evac {
            assert_eq!(e.req.prefix_hash, None);
            assert!(e.req.pull_ns.is_infinite());
        }
        let rep = s.finalize();
        assert_eq!(rep.leaked_pages, 0);
        assert_eq!(rep.invariant_violation, None);
    }

    #[test]
    fn prefill_work_accumulates_executed_chunks() {
        let mut cfg = slo_cfg();
        cfg.pages.hbm_capacity_pages = 100;
        let mut s = Scheduler::new(cfg);
        let mut feas = |_u: usize, _c: usize| true;
        let mut r = req(0, SloClass::Interactive, 16_384, 1);
        r.prefill_ns = 2e6;
        s.on_arrival(r, &mut feas);
        s.drain_queue(&mut feas);
        let mut now = 0.0;
        for _ in 0..8 {
            if s.active_is_empty() {
                break;
            }
            let _ = s.plan_step();
            now += 1e6;
            let _ = s.advance_step(1e6, now);
        }
        let rep = s.finalize();
        assert!((rep.prefill_work_ns - 2e6).abs() < 1e-3);
    }
}
