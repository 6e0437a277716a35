//! Deterministic fault injection for the LongSight simulators.
//!
//! A production-scale serving deployment must survive CXL link replays,
//! straggling NMAs, and filter bit-errors without violating its SLOs. This
//! crate provides the fault *schedule* those scenarios need, with two hard
//! guarantees:
//!
//! 1. **Seed determinism at any thread count.** Every fault decision is a
//!    pure function of `(fault_seed, event stream key, draw index)` — there
//!    is no shared RNG whose draw order could depend on scheduling. A given
//!    `--fault-seed` therefore reproduces the exact same fault timeline
//!    whether the simulator runs on 1 thread or 64, composing with the
//!    `longsight-exec` bit-identity contract.
//! 2. **Monotonicity in the fault rate.** An event fires iff its fixed
//!    per-event uniform draw falls below the configured rate, so raising a
//!    rate can only turn non-events into events (a superset). Downstream,
//!    higher fault rates can never *reduce* latency or *raise* SLO capacity.
//!
//! The crate is dependency-free apart from the in-repo `tensor::rng`
//! xoshiro generator, and carries the shared fault vocabulary:
//! [`FaultProfile`] (rates), [`RetryPolicy`] (deadline/backoff),
//! [`FaultInjector`] (sampling), [`FaultEvent`]/[`FaultLog`] (the replayable
//! timeline), and [`FaultError`] (the typed error model that replaces
//! panic-on-bad-input in the offload timing paths).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use longsight_obs::{ArgVal, Recorder, TrackId};
use longsight_tensor::SimRng;

/// Event-stream domains, kept distinct so the same `(a, b, c)` coordinates
/// in different subsystems never collide on one draw.
pub mod domain {
    /// CXL bulk transfers (CRC replay events).
    pub const LINK: u64 = 1;
    /// Per-slice NMA execution (straggler multipliers).
    pub const SLICE: u64 = 2;
    /// Per-head PFU filtering in the functional device (bitmap bit-flips).
    pub const PFU: u64 = 3;
    /// Per-slice hard timeouts.
    pub const TIMEOUT: u64 = 4;
    /// Per-token offload attempts in the serving loop.
    pub const TOKEN: u64 = 5;
    /// Unrecoverable per-request failures.
    pub const HARD: u64 = 6;
    /// Speculative lookahead offload slots (miss draws and in-flight fault
    /// voids); kept separate from [`TOKEN`] so speculation never perturbs
    /// the retry ladder's draw sequence.
    pub const SPEC: u64 = 7;
    /// Replica-level crash/recovery hazards in the fleet simulator. Keyed
    /// `(REPLICA, replica_index, hazard_interval, 0)`; draw 0 is the crash
    /// Bernoulli, draw 1 the within-interval jitter.
    pub const REPLICA: u64 = 8;
    /// Sustained DReX-tier brownouts (degraded offload budget) per replica.
    /// Keyed `(BROWNOUT, replica_index, hazard_interval, 0)`; draw 0 is the
    /// brownout Bernoulli, draw 1 the within-interval jitter.
    pub const BROWNOUT: u64 = 9;
}

/// splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a stream key from a domain and up to three coordinates
/// (user/head/slice, request/token, …). Pure and collision-resistant enough
/// for scheduling purposes.
pub fn stream(domain: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut h = mix64(domain.wrapping_mul(0xA076_1D64_78BD_642F));
    h = mix64(h ^ a.wrapping_mul(0xE703_7ED1_A0B4_28DB));
    h = mix64(h ^ b.wrapping_mul(0x8EBC_6AF0_9C88_C6E3));
    mix64(h ^ c.wrapping_mul(0x5895_65E0_6C3D_3D1D))
}

/// The `draw`-th uniform in `[0, 1)` of `stream` under `seed` — the same
/// pure function [`FaultInjector::uniform`] uses, exposed standalone so
/// subsystems that only need deterministic Bernoulli draws (e.g. the
/// lookahead speculation model) can share the machinery without carrying a
/// fault profile.
pub fn unit_draw(seed: u64, stream: u64, draw: u64) -> f64 {
    let mut rng = SimRng::seed_from(mix64(seed ^ stream).wrapping_add(draw));
    rng.uniform()
}

/// Per-event-class fault rates. All rates are probabilities in `[0, 1]`;
/// a fully-zero profile (`disabled`) injects nothing and leaves every
/// simulation bit-identical to the fault-free build.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Probability that a CXL bulk transfer suffers a CRC replay round.
    pub link_replay_rate: f64,
    /// Maximum replay rounds per transfer (each round retransmits one
    /// link-layer flit window and re-arbitrates the link).
    pub link_max_replays: u32,
    /// Probability that one slice's NMA straggles (thermal throttling,
    /// refresh collision, bank conflict storm).
    pub straggler_rate: f64,
    /// Execution-time multiplier applied to a straggling slice.
    pub straggler_multiplier: f64,
    /// Probability that one slice's PFU bitmap is corrupted by a bit-error.
    pub bitflip_rate: f64,
    /// Fraction of that slice's filter decisions flipped when corrupted
    /// (survivors dropped become false negatives; non-survivors added
    /// become false positives).
    pub bitflip_flip_fraction: f64,
    /// Probability that a token's offload attempt hits a hard slice timeout
    /// (NMA hang / lost completion) and must be retried.
    pub timeout_rate: f64,
    /// Probability that a request dies unrecoverably (host evicted, link
    /// down beyond replay budget). Sampled once per token.
    pub hard_fail_rate: f64,
}

impl FaultProfile {
    /// No faults: every simulation is bit-identical to the fault-free path.
    pub fn disabled() -> Self {
        Self {
            link_replay_rate: 0.0,
            link_max_replays: 0,
            straggler_rate: 0.0,
            straggler_multiplier: 1.0,
            bitflip_rate: 0.0,
            bitflip_flip_fraction: 0.0,
            timeout_rate: 0.0,
            hard_fail_rate: 0.0,
        }
    }

    /// A lightly degraded link/device: occasional replays and stragglers,
    /// rare timeouts. Roughly "a healthy fleet's tail".
    pub fn mild() -> Self {
        Self::scaled(0.01)
    }

    /// A badly degraded deployment: frequent replays, stragglers and
    /// timeouts. Roughly "one failing device in the pool".
    pub fn severe() -> Self {
        Self::scaled(0.10)
    }

    /// A profile where every event class fires with probability derived
    /// from one scalar `rate` (the availability sweep's x-axis).
    ///
    /// Replays and stragglers fire at `rate`, PFU bit-flips at `rate / 2`,
    /// slice timeouts at `rate / 2`, and unrecoverable failures at
    /// `rate / 50`. All derived rates are monotone in `rate`.
    pub fn scaled(rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        Self {
            link_replay_rate: rate,
            link_max_replays: 3,
            straggler_rate: rate,
            straggler_multiplier: 4.0,
            bitflip_rate: rate / 2.0,
            bitflip_flip_fraction: 0.01,
            timeout_rate: rate / 2.0,
            hard_fail_rate: rate / 50.0,
        }
    }

    /// Parses a CLI profile name: `none`, `mild`, `severe`, or a bare
    /// fault-rate float such as `0.05`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted forms.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "none" | "off" | "disabled" => Ok(Self::disabled()),
            "mild" => Ok(Self::mild()),
            "severe" => Ok(Self::severe()),
            other => match other.parse::<f64>() {
                Ok(r) if (0.0..=1.0).contains(&r) => Ok(Self::scaled(r)),
                _ => Err(format!(
                    "invalid fault profile '{other}' (use none, mild, severe, or a rate in [0, 1])"
                )),
            },
        }
    }

    /// Whether any event class can fire at all.
    pub fn is_enabled(&self) -> bool {
        self.link_replay_rate > 0.0
            || self.straggler_rate > 0.0
            || self.bitflip_rate > 0.0
            || self.timeout_rate > 0.0
            || self.hard_fail_rate > 0.0
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Retry/deadline policy of the serving degradation path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Per-request offload deadline: the GPU abandons an attempt that has
    /// not completed by this point, ns.
    pub offload_deadline_ns: f64,
    /// Bounded retries after the first attempt.
    pub max_retries: u32,
    /// First backoff before re-submitting, ns.
    pub backoff_base_ns: f64,
    /// Exponential backoff growth per retry.
    pub backoff_multiplier: f64,
    /// Ceiling on any single backoff, ns: the exponential schedule
    /// saturates here instead of growing without bound.
    pub backoff_cap_ns: f64,
}

impl RetryPolicy {
    /// Serving defaults: a 2 ms offload deadline (well above any healthy
    /// single-layer offload), 2 retries, 50 µs base backoff doubling per
    /// retry, saturating at a 1 ms cap (far above the default schedule, so
    /// the cap only binds under reconfigured deep-retry policies).
    pub fn serving_default() -> Self {
        Self {
            offload_deadline_ns: 2.0e6,
            max_retries: 2,
            backoff_base_ns: 50_000.0,
            backoff_multiplier: 2.0,
            backoff_cap_ns: 1.0e6,
        }
    }

    /// Backoff before retry `attempt` (1-based: the wait preceding the
    /// attempt with that index), saturated at [`RetryPolicy::backoff_cap_ns`].
    pub fn backoff_ns(&self, attempt: u32) -> f64 {
        let raw = self.backoff_base_ns
            * self
                .backoff_multiplier
                .powi(attempt.saturating_sub(1) as i32);
        raw.min(self.backoff_cap_ns)
    }

    /// Worst-case time a fully-degraded token spends before falling back to
    /// dense window-only attention: every attempt runs to the deadline, with
    /// backoffs in between.
    pub fn degraded_elapsed_ns(&self) -> f64 {
        let attempts = (self.max_retries + 1) as f64;
        let backoffs: f64 = (1..=self.max_retries).map(|a| self.backoff_ns(a)).sum();
        attempts * self.offload_deadline_ns + backoffs
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::serving_default()
    }
}

/// Typed error of the offload timing paths (replacing the former
/// panic-on-bad-input style in the hot paths).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// A workload specification is inconsistent (formerly a panic).
    InvalidSpec(String),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::InvalidSpec(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// One injected fault occurrence, keyed by its stream so logs are
/// replayable and comparable across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// The stream key the event was sampled on.
    pub stream: u64,
    /// What happened.
    pub kind: FaultKind,
}

/// Fault event taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// A CXL transfer needed `replays` CRC replay rounds.
    LinkReplay {
        /// Replay rounds.
        replays: u32,
    },
    /// A slice ran `multiplier`× slower than nominal.
    Straggler {
        /// Slowdown factor.
        multiplier: f64,
    },
    /// A PFU bitmap was corrupted, flipping filter decisions.
    Bitflip {
        /// True survivors dropped (hurt recall).
        false_negatives: usize,
        /// Spurious survivors added (cost fetch/score time).
        false_positives: usize,
    },
    /// An offload attempt hit a hard timeout.
    Timeout {
        /// Attempt index (0 = first try).
        attempt: u32,
    },
    /// A retry was scheduled after `backoff_ns` of backoff.
    Retry {
        /// Retry index (1-based).
        attempt: u32,
        /// Backoff preceding the retry, ns.
        backoff_ns: f64,
    },
    /// All attempts failed; the token fell back to dense window-only
    /// attention.
    Degraded,
    /// The request died unrecoverably.
    HardFail,
}

impl FaultEvent {
    /// The instant-event name under which this fault appears in a trace.
    /// All names share the `fault.` prefix so exporters and tests can count
    /// fault events with one predicate.
    pub fn trace_name(&self) -> &'static str {
        match self.kind {
            FaultKind::LinkReplay { .. } => "fault.link_replay",
            FaultKind::Straggler { .. } => "fault.straggler",
            FaultKind::Bitflip { .. } => "fault.bitflip",
            FaultKind::Timeout { .. } => "fault.timeout",
            FaultKind::Retry { .. } => "fault.retry",
            FaultKind::Degraded => "fault.degraded",
            FaultKind::HardFail => "fault.hard_fail",
        }
    }

    /// Records this event as one instant at simulated time `ts_ns`.
    pub fn record_into(&self, rec: &mut Recorder, track: TrackId, ts_ns: f64) {
        if !rec.is_enabled() {
            return;
        }
        let stream = ("stream", ArgVal::U(self.stream));
        match &self.kind {
            FaultKind::LinkReplay { replays } => rec.instant_with(
                track,
                self.trace_name(),
                ts_ns,
                &[stream, ("replays", ArgVal::U(u64::from(*replays)))],
            ),
            FaultKind::Straggler { multiplier } => rec.instant_with(
                track,
                self.trace_name(),
                ts_ns,
                &[stream, ("multiplier", ArgVal::F(*multiplier))],
            ),
            FaultKind::Bitflip {
                false_negatives,
                false_positives,
            } => rec.instant_with(
                track,
                self.trace_name(),
                ts_ns,
                &[
                    stream,
                    ("false_negatives", ArgVal::U(*false_negatives as u64)),
                    ("false_positives", ArgVal::U(*false_positives as u64)),
                ],
            ),
            FaultKind::Timeout { attempt } => rec.instant_with(
                track,
                self.trace_name(),
                ts_ns,
                &[stream, ("attempt", ArgVal::U(u64::from(*attempt)))],
            ),
            FaultKind::Retry {
                attempt,
                backoff_ns,
            } => rec.instant_with(
                track,
                self.trace_name(),
                ts_ns,
                &[
                    stream,
                    ("attempt", ArgVal::U(u64::from(*attempt))),
                    ("backoff_ns", ArgVal::F(*backoff_ns)),
                ],
            ),
            FaultKind::Degraded | FaultKind::HardFail => {
                rec.instant_with(track, self.trace_name(), ts_ns, &[stream])
            }
        }
    }
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FaultKind::LinkReplay { replays } => {
                write!(f, "{:016x} link-replay x{replays}", self.stream)
            }
            FaultKind::Straggler { multiplier } => {
                write!(f, "{:016x} straggler x{multiplier:.2}", self.stream)
            }
            FaultKind::Bitflip {
                false_negatives,
                false_positives,
            } => write!(
                f,
                "{:016x} bitflip fn={false_negatives} fp={false_positives}",
                self.stream
            ),
            FaultKind::Timeout { attempt } => {
                write!(f, "{:016x} timeout attempt={attempt}", self.stream)
            }
            FaultKind::Retry {
                attempt,
                backoff_ns,
            } => write!(
                f,
                "{:016x} retry attempt={attempt} backoff={backoff_ns:.0}ns",
                self.stream
            ),
            FaultKind::Degraded => write!(f, "{:016x} degraded", self.stream),
            FaultKind::HardFail => write!(f, "{:016x} hard-fail", self.stream),
        }
    }
}

/// An append-only, deterministic fault timeline.
///
/// Callers append events in their (serial, deterministic) control-flow
/// order; [`FaultLog::to_text`] renders one line per event in a stable
/// format, so two runs can be compared byte-for-byte.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn push(&mut self, stream: u64, kind: FaultKind) {
        self.events.push(FaultEvent { stream, kind });
    }

    /// Appends every event of `other` (merging per-item logs in index
    /// order keeps the combined log deterministic).
    pub fn extend(&mut self, other: FaultLog) {
        self.events.extend(other.events);
    }

    /// All events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events matching a predicate on the kind.
    pub fn count_matching(&self, pred: impl Fn(&FaultKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }

    /// Records events `start_idx..` as trace instants at simulated time
    /// `ts_ns`, one per log entry (the parity tests count on exactly this
    /// 1:1 mapping). Returns the number of events recorded, so streaming
    /// callers can advance their cursor: record the tail after each
    /// simulation step at that step's simulated time.
    pub fn record_tail_into(
        &self,
        start_idx: usize,
        rec: &mut Recorder,
        track: TrackId,
        ts_ns: f64,
    ) -> usize {
        if !rec.is_enabled() || start_idx >= self.events.len() {
            return 0;
        }
        let tail = &self.events[start_idx..];
        for e in tail {
            e.record_into(rec, track, ts_ns);
        }
        tail.len()
    }

    /// Stable one-line-per-event rendering for byte-identity comparisons.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 40);
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

/// The deterministic fault sampler.
///
/// All methods are `&self` and pure: the decision for a stream key is
/// independent of call order, thread count, and every other stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    /// The rates.
    pub profile: FaultProfile,
    /// The schedule seed (CLI `--fault-seed`).
    pub seed: u64,
}

impl FaultInjector {
    /// Creates an injector.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        Self { profile, seed }
    }

    /// An injector that never fires (the fault-free fast path).
    pub fn disabled() -> Self {
        Self::new(FaultProfile::disabled(), 0)
    }

    /// Whether any event class can fire.
    pub fn is_enabled(&self) -> bool {
        self.profile.is_enabled()
    }

    /// The `draw`-th uniform in `[0, 1)` of `stream` — a pure function of
    /// `(seed, stream, draw)`. Comparing these fixed draws against rates is
    /// what makes fault schedules monotone in the rate.
    pub fn uniform(&self, stream: u64, draw: u64) -> f64 {
        unit_draw(self.seed, stream, draw)
    }

    /// CRC replay rounds for a CXL transfer on `stream` (0 = clean).
    /// Each round fires iff its own fixed draw falls below the rate, so the
    /// count is monotone in `link_replay_rate`.
    pub fn link_replays(&self, stream: u64) -> u32 {
        let p = self.profile.link_replay_rate;
        if p <= 0.0 {
            return 0;
        }
        let mut replays = 0;
        while replays < self.profile.link_max_replays {
            if self.uniform(stream, replays as u64) < p {
                replays += 1;
            } else {
                break;
            }
        }
        replays
    }

    /// Straggler multiplier for a slice on `stream` (1.0 = nominal).
    pub fn straggler_multiplier(&self, stream: u64) -> f64 {
        if self.profile.straggler_rate > 0.0
            && self.uniform(stream, 0) < self.profile.straggler_rate
        {
            self.profile.straggler_multiplier.max(1.0)
        } else {
            1.0
        }
    }

    /// Whether the offload attempt `attempt` of the token on `stream` hits
    /// a hard timeout.
    pub fn attempt_times_out(&self, stream: u64, attempt: u32) -> bool {
        self.profile.timeout_rate > 0.0
            && self.uniform(stream, 1 + attempt as u64) < self.profile.timeout_rate
    }

    /// Whether the request on `stream` dies unrecoverably.
    pub fn hard_fails(&self, stream: u64) -> bool {
        self.profile.hard_fail_rate > 0.0 && self.uniform(stream, 0) < self.profile.hard_fail_rate
    }
}

/// Replica-level fault rates for the fleet simulator: whole-node crashes
/// (KV pages lost, in-flight work redispatched) and sustained DReX-tier
/// brownouts (offload budget shrunk, tokens counted as degraded).
///
/// Time is sliced into fixed hazard intervals; each up-interval draws one
/// crash Bernoulli and one brownout Bernoulli per replica on the
/// [`domain::REPLICA`] / [`domain::BROWNOUT`] streams. The raw per-interval
/// hazard is monotone in the rate, same as [`FaultProfile`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaFaultProfile {
    /// Probability that a replica crashes in one hazard interval.
    pub crash_rate: f64,
    /// Hazard interval length, seconds of simulated time.
    pub interval_s: f64,
    /// Downtime per crash before the replica rejoins, seconds.
    pub repair_s: f64,
    /// Probability that a replica's DReX tier browns out in one interval.
    pub brownout_rate: f64,
    /// Brownout duration, seconds.
    pub brownout_s: f64,
    /// Fraction of the offload top-k budget retained during a brownout,
    /// in `(0, 1]`; tokens decoded under it are counted as degraded.
    pub brownout_topk_factor: f64,
}

impl ReplicaFaultProfile {
    /// No replica faults: the fleet simulation is bit-identical to the
    /// crash-free build.
    pub fn disabled() -> Self {
        Self {
            crash_rate: 0.0,
            interval_s: 1.0,
            repair_s: 1.0,
            brownout_rate: 0.0,
            brownout_s: 1.0,
            brownout_topk_factor: 1.0,
        }
    }

    /// A profile where crashes fire per interval at `rate` and brownouts at
    /// `rate / 2`, with a 1 s hazard interval, 1 s repair time, 1 s
    /// brownouts, and half the offload budget retained while browned out.
    /// All derived rates are monotone in `rate`.
    pub fn scaled(rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        Self {
            crash_rate: rate,
            interval_s: 1.0,
            // A node restart is slow next to a serving SLO: three seconds
            // down per crash, so anything wedged on a dead replica blows
            // an interactive deadline rather than riding out a blip.
            repair_s: 3.0,
            brownout_rate: rate / 2.0,
            brownout_s: 1.0,
            brownout_topk_factor: 0.5,
        }
    }

    /// "A healthy fleet's tail": rare crashes.
    pub fn mild() -> Self {
        Self::scaled(0.05)
    }

    /// "One flapping rack": frequent crashes and brownouts.
    pub fn severe() -> Self {
        Self::scaled(0.25)
    }

    /// Parses a CLI profile name: `none`, `mild`, `severe`, or a bare
    /// per-interval crash-rate float such as `0.1`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted forms.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "none" | "off" | "disabled" => Ok(Self::disabled()),
            "mild" => Ok(Self::mild()),
            "severe" => Ok(Self::severe()),
            other => match other.parse::<f64>() {
                Ok(r) if (0.0..=1.0).contains(&r) => Ok(Self::scaled(r)),
                _ => Err(format!(
                    "invalid crash profile '{other}' (use none, mild, severe, or a rate in [0, 1])"
                )),
            },
        }
    }

    /// Whether any replica-level event can fire at all.
    pub fn is_enabled(&self) -> bool {
        self.crash_rate > 0.0 || self.brownout_rate > 0.0
    }
}

impl Default for ReplicaFaultProfile {
    fn default() -> Self {
        Self::disabled()
    }
}

/// What happened to a replica at one point of its fault timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaEventKind {
    /// The replica crashed: its KV pages are gone and its in-flight
    /// requests must be redispatched.
    Down,
    /// The replica finished repair and rejoined the fleet (cold: empty KV).
    Up,
    /// The replica's DReX tier entered a brownout (shrunk offload budget).
    BrownoutStart,
    /// The brownout ended; the offload budget is back to nominal.
    BrownoutEnd,
}

impl ReplicaEventKind {
    /// The instant-event name under which this event appears in a trace.
    pub fn trace_name(self) -> &'static str {
        match self {
            ReplicaEventKind::Down => "replica.down",
            ReplicaEventKind::Up => "replica.up",
            ReplicaEventKind::BrownoutStart => "replica.brownout_start",
            ReplicaEventKind::BrownoutEnd => "replica.brownout_end",
        }
    }

    /// Short display name for timeline text.
    fn name(self) -> &'static str {
        match self {
            ReplicaEventKind::Down => "down",
            ReplicaEventKind::Up => "up",
            ReplicaEventKind::BrownoutStart => "brownout-start",
            ReplicaEventKind::BrownoutEnd => "brownout-end",
        }
    }
}

/// One replica-level fault event at a simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaEvent {
    /// Simulated time of the event, ns.
    pub at_ns: f64,
    /// Replica index within the fleet.
    pub replica: usize,
    /// What happened.
    pub kind: ReplicaEventKind,
}

/// The deterministic crash/brownout timeline of one replica over
/// `duration_s` seconds — a pure function of `(seed, replica, profile)`.
///
/// Crashes: each hazard interval the replica is up, it crashes iff the
/// fixed draw `unit_draw(seed, stream(REPLICA, replica, interval, 0), 0)`
/// falls below `crash_rate`; the crash lands at a jittered point inside the
/// interval (draw 1) and the replica stays down for `repair_s`. Intervals
/// that start while the replica is down draw nothing — a dead node has no
/// hazard. Brownouts fire the same way on [`domain::BROWNOUT`]; a brownout
/// whose start falls inside a down window is suppressed (the whole node is
/// already gone) and one that overlaps a later crash is truncated at it.
///
/// Events are returned sorted by time; Down/Up pairs never overlap.
pub fn replica_schedule(
    profile: &ReplicaFaultProfile,
    seed: u64,
    replica: usize,
    duration_s: f64,
) -> Vec<ReplicaEvent> {
    let mut events = Vec::new();
    if !profile.is_enabled() || duration_s <= 0.0 || profile.interval_s <= 0.0 {
        return events;
    }
    let interval = profile.interval_s;
    let intervals = (duration_s / interval).ceil() as u64;
    // Pass 1: crash windows (sorted by construction).
    let mut downs: Vec<(f64, f64)> = Vec::new();
    let mut down_until = f64::NEG_INFINITY;
    for i in 0..intervals {
        let t0 = i as f64 * interval;
        if t0 < down_until {
            continue;
        }
        if profile.crash_rate > 0.0 {
            let key = stream(domain::REPLICA, replica as u64, i, 0);
            if unit_draw(seed, key, 0) < profile.crash_rate {
                let at = t0 + unit_draw(seed, key, 1) * interval;
                if at < duration_s && at >= down_until {
                    let up = at + profile.repair_s.max(0.0);
                    downs.push((at, up));
                    down_until = up;
                }
            }
        }
    }
    // Pass 2: brownouts, clipped against the crash windows.
    let mut brownouts: Vec<(f64, f64)> = Vec::new();
    if profile.brownout_rate > 0.0 && profile.brownout_s > 0.0 {
        let mut browned_until = f64::NEG_INFINITY;
        for i in 0..intervals {
            let t0 = i as f64 * interval;
            if t0 < browned_until {
                continue;
            }
            let key = stream(domain::BROWNOUT, replica as u64, i, 0);
            if unit_draw(seed, key, 0) >= profile.brownout_rate {
                continue;
            }
            let at = t0 + unit_draw(seed, key, 1) * interval;
            if at >= duration_s || at < browned_until {
                continue;
            }
            // Suppress a brownout that begins on a dead node; truncate one
            // that runs into a later crash.
            if downs.iter().any(|&(d, u)| at >= d && at < u) {
                continue;
            }
            let mut end = at + profile.brownout_s;
            for &(d, _) in &downs {
                if d > at && d < end {
                    end = d;
                }
            }
            brownouts.push((at, end));
            browned_until = end;
        }
    }
    for (d, u) in downs {
        events.push(ReplicaEvent {
            at_ns: d * 1e9,
            replica,
            kind: ReplicaEventKind::Down,
        });
        events.push(ReplicaEvent {
            at_ns: u * 1e9,
            replica,
            kind: ReplicaEventKind::Up,
        });
    }
    for (s, e) in brownouts {
        events.push(ReplicaEvent {
            at_ns: s * 1e9,
            replica,
            kind: ReplicaEventKind::BrownoutStart,
        });
        events.push(ReplicaEvent {
            at_ns: e * 1e9,
            replica,
            kind: ReplicaEventKind::BrownoutEnd,
        });
    }
    events.sort_by(|a, b| {
        a.at_ns
            .total_cmp(&b.at_ns)
            .then_with(|| (a.kind as u8).cmp(&(b.kind as u8)))
    });
    events
}

/// The full fleet timeline: every replica's schedule merged in time order
/// (ties broken by replica index, then event kind), ready to drain at
/// simulation boundaries.
pub fn fleet_schedule(
    profile: &ReplicaFaultProfile,
    seed: u64,
    replicas: usize,
    duration_s: f64,
) -> Vec<ReplicaEvent> {
    let mut all = Vec::new();
    for r in 0..replicas {
        all.extend(replica_schedule(profile, seed, r, duration_s));
    }
    all.sort_by(|a, b| {
        a.at_ns
            .total_cmp(&b.at_ns)
            .then_with(|| a.replica.cmp(&b.replica))
            .then_with(|| (a.kind as u8).cmp(&(b.kind as u8)))
    });
    all
}

/// Stable one-line-per-event rendering of a replica timeline for
/// byte-identity comparisons across thread counts and reruns.
pub fn timeline_text(events: &[ReplicaEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 32);
    for e in events {
        out.push_str(&format!(
            "{:>14.0} r{} {}\n",
            e.at_ns,
            e.replica,
            e.kind.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profile_never_fires() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_enabled());
        for s in 0..1000u64 {
            assert_eq!(inj.link_replays(s), 0);
            assert_eq!(inj.straggler_multiplier(s), 1.0);
            assert!(!inj.attempt_times_out(s, 0));
            assert!(!inj.hard_fails(s));
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_seed_and_stream() {
        let a = FaultInjector::new(FaultProfile::severe(), 7);
        let b = FaultInjector::new(FaultProfile::severe(), 7);
        // Query b in a different order than a; decisions must not change.
        let fwd: Vec<u32> = (0..500).map(|s| a.link_replays(s)).collect();
        let bwd: Vec<u32> = (0..500).rev().map(|s| b.link_replays(s)).collect();
        assert_eq!(fwd, bwd.into_iter().rev().collect::<Vec<_>>());
        // Different seeds diverge.
        let c = FaultInjector::new(FaultProfile::severe(), 8);
        let other: Vec<u32> = (0..500).map(|s| c.link_replays(s)).collect();
        assert_ne!(fwd, other);
    }

    #[test]
    fn event_sets_are_monotone_in_rate() {
        let seed = 11;
        let lo = FaultInjector::new(FaultProfile::scaled(0.02), seed);
        let hi = FaultInjector::new(FaultProfile::scaled(0.20), seed);
        for s in 0..2000u64 {
            assert!(hi.link_replays(s) >= lo.link_replays(s), "stream {s}");
            assert!(
                hi.straggler_multiplier(s) >= lo.straggler_multiplier(s),
                "stream {s}"
            );
            // lo firing implies hi fires (event sets nest upward in rate).
            assert!(
                hi.attempt_times_out(s, 0) || !lo.attempt_times_out(s, 0),
                "stream {s}: higher rate lost a timeout"
            );
            assert!(hi.hard_fails(s) || !lo.hard_fails(s), "stream {s}");
        }
    }

    #[test]
    fn rates_are_approximately_honored() {
        let inj = FaultInjector::new(FaultProfile::scaled(0.10), 3);
        let n = 20_000u64;
        let stragglers = (0..n)
            .filter(|&s| inj.straggler_multiplier(s) > 1.0)
            .count();
        let frac = stragglers as f64 / n as f64;
        assert!((frac - 0.10).abs() < 0.01, "straggler rate {frac}");
        let replays: u32 = (0..n).map(|s| inj.link_replays(s)).sum();
        // Expected ≈ p + p² + p³ per stream.
        let per = replays as f64 / n as f64;
        assert!((per - 0.111).abs() < 0.01, "replay count {per}");
    }

    #[test]
    fn profile_parsing_accepts_names_and_rates() {
        assert_eq!(
            FaultProfile::parse("none").unwrap(),
            FaultProfile::disabled()
        );
        assert_eq!(FaultProfile::parse("mild").unwrap(), FaultProfile::mild());
        assert_eq!(
            FaultProfile::parse("severe").unwrap(),
            FaultProfile::severe()
        );
        assert_eq!(
            FaultProfile::parse("0.05").unwrap(),
            FaultProfile::scaled(0.05)
        );
        assert!(FaultProfile::parse("2.0").is_err());
        assert!(FaultProfile::parse("bogus").is_err());
    }

    #[test]
    fn retry_policy_backoff_grows_exponentially() {
        let p = RetryPolicy::serving_default();
        assert_eq!(p.backoff_ns(1), 50_000.0);
        assert_eq!(p.backoff_ns(2), 100_000.0);
        let degraded = p.degraded_elapsed_ns();
        assert_eq!(degraded, 3.0 * 2.0e6 + 50_000.0 + 100_000.0);
    }

    #[test]
    fn log_text_is_stable_and_countable() {
        let mut log = FaultLog::new();
        log.push(1, FaultKind::LinkReplay { replays: 2 });
        log.push(
            2,
            FaultKind::Bitflip {
                false_negatives: 3,
                false_positives: 7,
            },
        );
        log.push(3, FaultKind::Degraded);
        let text = log.to_text();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("link-replay x2"));
        assert!(text.contains("bitflip fn=3 fp=7"));
        assert!(text.contains("degraded"));
        assert_eq!(log.count_matching(|k| matches!(k, FaultKind::Degraded)), 1);
        let mut merged = FaultLog::new();
        merged.extend(log.clone());
        assert_eq!(merged, log);
    }

    #[test]
    fn fault_errors_render_useful_messages() {
        assert_eq!(
            FaultError::InvalidSpec("more survivors than keys".into()).to_string(),
            "more survivors than keys"
        );
    }

    #[test]
    fn replica_schedule_is_deterministic_and_order_free() {
        let p = ReplicaFaultProfile::severe();
        let a = replica_schedule(&p, 42, 1, 16.0);
        let b = replica_schedule(&p, 42, 1, 16.0);
        assert_eq!(a, b);
        assert_eq!(timeline_text(&a), timeline_text(&b));
        // A different seed or replica index diverges.
        assert_ne!(a, replica_schedule(&p, 43, 1, 16.0));
        assert_ne!(a, replica_schedule(&p, 42, 2, 16.0));
        // The fleet merge is the per-replica schedules re-sorted, so a
        // replica's own timeline is independent of fleet size.
        let fleet = fleet_schedule(&p, 42, 4, 16.0);
        let r1: Vec<ReplicaEvent> = fleet.iter().filter(|e| e.replica == 1).copied().collect();
        assert_eq!(r1, a);
    }

    #[test]
    fn replica_schedule_disabled_is_empty() {
        let p = ReplicaFaultProfile::disabled();
        assert!(!p.is_enabled());
        assert!(replica_schedule(&p, 7, 0, 64.0).is_empty());
        assert!(fleet_schedule(&p, 7, 8, 64.0).is_empty());
    }

    #[test]
    fn replica_down_windows_never_overlap() {
        let p = ReplicaFaultProfile::scaled(0.5);
        for r in 0..8 {
            let ev = replica_schedule(&p, 3, r, 32.0);
            let mut down = false;
            let mut last = f64::NEG_INFINITY;
            for e in &ev {
                assert!(e.at_ns >= last, "events must be time-sorted");
                last = e.at_ns;
                match e.kind {
                    ReplicaEventKind::Down => {
                        assert!(!down, "crash while already down");
                        down = true;
                    }
                    ReplicaEventKind::Up => {
                        assert!(down, "recovery without a crash");
                        down = false;
                    }
                    ReplicaEventKind::BrownoutStart => {
                        assert!(!down, "brownout started on a dead node");
                    }
                    ReplicaEventKind::BrownoutEnd => {}
                }
            }
        }
    }

    #[test]
    fn replica_hazard_is_monotone_in_rate() {
        // The raw per-interval hazard nests upward in rate: any interval
        // that fires at the low rate also fires at the high rate.
        for r in 0..4u64 {
            for i in 0..64u64 {
                let key = stream(domain::REPLICA, r, i, 0);
                let d = unit_draw(11, key, 0);
                if d < 0.05 {
                    assert!(d < 0.25, "low-rate crash lost at high rate");
                }
            }
        }
        // And the realized crash count does not shrink for this seed.
        let lo = replica_schedule(&ReplicaFaultProfile::scaled(0.05), 11, 0, 64.0);
        let hi = replica_schedule(&ReplicaFaultProfile::scaled(0.25), 11, 0, 64.0);
        let crashes = |ev: &[ReplicaEvent]| {
            ev.iter()
                .filter(|e| e.kind == ReplicaEventKind::Down)
                .count()
        };
        assert!(crashes(&hi) >= crashes(&lo));
        assert!(crashes(&hi) > 0, "severe rate over 64 s must crash");
    }

    #[test]
    fn replica_profile_parsing_accepts_names_and_rates() {
        assert_eq!(
            ReplicaFaultProfile::parse("none").unwrap(),
            ReplicaFaultProfile::disabled()
        );
        assert_eq!(
            ReplicaFaultProfile::parse("mild").unwrap(),
            ReplicaFaultProfile::mild()
        );
        assert_eq!(
            ReplicaFaultProfile::parse("severe").unwrap(),
            ReplicaFaultProfile::severe()
        );
        assert_eq!(
            ReplicaFaultProfile::parse("0.1").unwrap(),
            ReplicaFaultProfile::scaled(0.1)
        );
        assert!(ReplicaFaultProfile::parse("1.5").is_err());
        assert!(ReplicaFaultProfile::parse("flaky").is_err());
    }

    #[test]
    fn timeline_text_is_stable() {
        let ev = vec![
            ReplicaEvent {
                at_ns: 1.5e9,
                replica: 0,
                kind: ReplicaEventKind::Down,
            },
            ReplicaEvent {
                at_ns: 2.5e9,
                replica: 0,
                kind: ReplicaEventKind::Up,
            },
        ];
        let text = timeline_text(&ev);
        assert_eq!(text, "    1500000000 r0 down\n    2500000000 r0 up\n");
    }

    #[test]
    fn stream_keys_are_well_spread() {
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..10 {
            for b in 0..10 {
                for c in 0..10 {
                    seen.insert(stream(domain::SLICE, a, b, c));
                }
            }
        }
        assert_eq!(seen.len(), 1000, "stream keys must not collide");
    }
}
