//! Fleet-level roll-up of per-replica scheduler reports, with the
//! cross-replica invariant audit.
//!
//! A fleet run produces one [`crate::SchedReport`] per replica plus the
//! router's placement log. [`FleetReport`] stitches them together:
//! per-class outcomes roll up by summing counts and recomputing percentiles
//! over the merged latencies — exact token-latency counts and request
//! samples — never by averaging per-replica percentiles, and the audit
//! checks the properties no single replica can see — every arrival placed
//! exactly once, arrivals conserved across the fleet, every token sample
//! the serving loops tallied present in the merged counts, and every
//! replica's own page-ledger audit clean.

use crate::latency::LatencyCounts;
use crate::request::SloClass;
use crate::router::RouterPolicy;
use crate::scheduler::{percentile, ClassReport, SchedReport};

/// One routing decision: `(arrival id, replica index)`.
pub type Placement = (usize, usize);

/// One request moved off a crashed (or tripped) replica and placed again
/// through the router.
#[derive(Debug, Clone, PartialEq)]
pub struct RedispatchRecord {
    /// Arrival id of the moved request.
    pub id: usize,
    /// Replica it was evacuated from.
    pub from: usize,
    /// Replica it landed on.
    pub to: usize,
    /// Simulated time of the redispatch, ns.
    pub at_ns: f64,
    /// Why it moved (e.g. `replica-crash`).
    pub reason: &'static str,
}

/// One arrival the admission controller refused fleet-wide.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedRecord {
    /// Arrival id of the shed request.
    pub id: usize,
    /// Its SLO class.
    pub class: SloClass,
    /// Simulated time of the decision, ns.
    pub at_ns: f64,
    /// Why it was shed (e.g. `queue-cap`, `no-healthy-replica`).
    pub reason: &'static str,
}

/// Fleet-level fault/overload outcome of a run: crash timeline totals, the
/// redispatch and shed logs, and the offered-load denominator. `None` on a
/// [`FleetReport`] means the run had no crash profile and no shedding — the
/// report (text and JSON) is byte-identical to the pre-fault-domain format.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFaultSummary {
    /// Total arrivals the workload offered (placed + shed).
    pub offered: usize,
    /// Replica crashes observed.
    pub crashes: usize,
    /// Brownout windows observed.
    pub brownouts: usize,
    /// Per-replica downtime, ns of simulated time.
    pub downtime_ns: Vec<f64>,
    /// Every redispatch, in decision order.
    pub redispatches: Vec<RedispatchRecord>,
    /// Every shed arrival, in decision order.
    pub shed: Vec<ShedRecord>,
}

impl FleetFaultSummary {
    /// An empty summary over `replicas` replicas expecting `offered`
    /// arrivals.
    pub fn new(replicas: usize, offered: usize) -> Self {
        Self {
            offered,
            crashes: 0,
            brownouts: 0,
            downtime_ns: vec![0.0; replicas],
            redispatches: Vec::new(),
            shed: Vec::new(),
        }
    }

    /// Shed arrivals of one class.
    pub fn shed_of(&self, class: SloClass) -> usize {
        self.shed.iter().filter(|s| s.class == class).count()
    }
}

/// One cross-replica prefix pull: a resumed session landing on `to` fetched
/// its prefix pages from `from`'s cache over the pooled-DReX fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct PullRecord {
    /// Arrival id of the resuming turn.
    pub id: usize,
    /// Content hash of the pulled prefix.
    pub hash: u64,
    /// Replica whose cache held the prefix.
    pub from: usize,
    /// Replica the turn was placed on.
    pub to: usize,
    /// Pages transferred.
    pub pages: usize,
    /// Simulated time of the pull, ns.
    pub at_ns: f64,
}

/// Session-workload outcome of a fleet run: turn counts, local prefix hits,
/// and the cross-replica pull log. `None` on a [`FleetReport`] means the
/// run had no session workload — text output stays byte-identical to the
/// sessionless format.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSummary {
    /// Distinct sessions offered.
    pub sessions: usize,
    /// Total turn arrivals offered (across all sessions).
    pub turns: usize,
    /// Follow-up turns that pinned their prefix in the cache of the replica
    /// they were placed on (no fabric transfer).
    pub prefix_hits: usize,
    /// Follow-up turns priced as full re-prefill (no usable cached copy, or
    /// the pull was dearer than recomputing).
    pub cold_turns: usize,
    /// Follow-up turns the admission controller shed (fault-domain runs
    /// only): never placed, so neither a hit, a pull nor cold.
    pub shed_turns: usize,
    /// Every cross-replica pull, in decision order.
    pub pulls: Vec<PullRecord>,
}

impl SessionSummary {
    /// Total pages transferred by cross-replica pulls.
    pub fn pulled_pages(&self) -> usize {
        self.pulls.iter().map(|p| p.pages).sum()
    }

    /// The one-line summary appended to fleet text reports. The shed count
    /// appears only when non-zero.
    pub fn to_text(&self) -> String {
        let shed = if self.shed_turns > 0 {
            format!(" | shed {}", self.shed_turns)
        } else {
            String::new()
        };
        format!(
            "  sessions: {} sessions, {} turns | prefix hits {} | pulls {} ({} pages) | cold {}{shed}\n",
            self.sessions,
            self.turns,
            self.prefix_hits,
            self.pulls.len(),
            self.pulled_pages(),
            self.cold_turns,
        )
    }
}

/// End-of-run SLO error-budget accounting from the telemetry burn-rate
/// engine (see `longsight-obs`): how much of the interactive deadline's
/// error budget the run consumed and how many alert windows fired. Defined
/// here (not in the obs crate) so both `ServeMetrics` and [`FleetReport`]
/// can carry it without a dependency cycle — sched depends on nothing.
/// `None` everywhere unless timeseries telemetry was enabled, which keeps
/// every pre-existing report byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SloBurnSummary {
    /// Interactive deadline in milliseconds.
    pub slo_ms: f64,
    /// Error budget as a miss fraction (0.05 = 5% may miss).
    pub budget: f64,
    /// Interactive completions observed.
    pub completions: u64,
    /// Interactive completions above the deadline.
    pub misses: u64,
    /// Fraction of the error budget consumed (`miss_frac / budget`;
    /// ≥ 1.0 means exhausted).
    pub consumed: f64,
    /// Number of base windows where both the fast and slow burn rates
    /// exceeded the alert threshold.
    pub alert_windows: u64,
    /// Start of the first alert window in simulated ms (0 when none).
    pub first_alert_ms: f64,
}

impl SloBurnSummary {
    /// The two-line summary block appended to serve/fleet text reports.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "  slo burn: deadline {} ms budget {:.1}% | {} interactive, {} missed | budget consumed {:.1}%\n",
            self.slo_ms,
            self.budget * 100.0,
            self.completions,
            self.misses,
            self.consumed * 100.0,
        );
        if self.alert_windows > 0 {
            out.push_str(&format!(
                "  slo burn alerts: {} window(s), first at {:.0} ms\n",
                self.alert_windows, self.first_alert_ms
            ));
        } else {
            out.push_str("  slo burn alerts: none\n");
        }
        out
    }
}

/// End-of-run fleet summary.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Router policy that produced the placements.
    pub router: RouterPolicy,
    /// Per-replica scheduler reports, in replica order.
    pub replicas: Vec<SchedReport>,
    /// Placement log in arrival order (first placement of each arrival;
    /// redispatches are logged in [`FleetFaultSummary::redispatches`]).
    pub placements: Vec<Placement>,
    /// Fleet-wide per-class outcomes (counts summed, percentiles over the
    /// merged latencies), indexed by [`SloClass::index`].
    pub per_class: [ClassReport; 3],
    /// First violated cross-replica invariant, if any (must be `None`).
    pub audit_violation: Option<String>,
    /// Crash/redispatch/shed outcome; `None` for fault-free runs.
    pub faults: Option<FleetFaultSummary>,
    /// Session-workload outcome; `None` unless the run carried a session
    /// workload (attached via [`FleetReport::attach_sessions`]).
    pub sessions: Option<SessionSummary>,
    /// SLO error-budget accounting; `None` unless timeseries telemetry was
    /// enabled for the run.
    pub slo_burn: Option<SloBurnSummary>,
}

impl FleetReport {
    /// Builds the fleet report and runs the cross-replica audit.
    ///
    /// `samples` are the per-class `(token, request)` latencies merged
    /// across every replica: the exact token-latency counts (see
    /// [`LatencyCounts::merge`]) and the request-latency samples in any
    /// order, which the percentiles select over in place, so their order
    /// afterwards is unspecified. The audit checks token conservation
    /// against the merged counts' total `len()`. With the fault/overload
    /// outcome attached it also checks the redispatch and shed logs
    /// (placed + shed = offered; per-replica arrivals = placements +
    /// redispatches into it).
    pub fn assemble_with_faults(
        router: RouterPolicy,
        replicas: Vec<SchedReport>,
        placements: Vec<Placement>,
        mut samples: [(LatencyCounts, Vec<f64>); 3],
        faults: Option<FleetFaultSummary>,
    ) -> Self {
        let counted = samples.iter().map(|(tok, _)| tok.len()).sum();
        let audit_violation = audit(&replicas, &placements, faults.as_ref())
            .or_else(|| audit_tokens(&replicas, counted));
        let mut per_class: [ClassReport; 3] = Default::default();
        for class in SloClass::ALL {
            let i = class.index();
            let (ref tok, ref mut req) = samples[i];
            let sum = |f: fn(&ClassReport) -> usize| -> usize {
                replicas.iter().map(|r| f(&r.per_class[i])).sum()
            };
            per_class[i] = ClassReport {
                arrived: sum(|c| c.arrived),
                completed: sum(|c| c.completed),
                rejected: sum(|c| c.rejected),
                failed: sum(|c| c.failed),
                preempted: sum(|c| c.preempted),
                tokens: sum(|c| c.tokens),
                p50_token_ms: tok.quantile_ceil(0.5),
                p99_token_ms: tok.quantile_ceil(0.99),
                p50_request_ms: percentile(req, 0.5),
                p99_request_ms: percentile(req, 0.99),
            };
        }
        Self {
            router,
            replicas,
            placements,
            per_class,
            audit_violation,
            faults,
            sessions: None,
            slo_burn: None,
        }
    }

    /// Attaches the session-workload outcome and runs the session audit:
    /// every pull names two distinct in-range replicas and a real arrival,
    /// moves at least one page, and the pull log is conserved against the
    /// replicas' own pin counters (every pin a replica recorded is either a
    /// local hit or a pull onto it — pulled = pinned elsewhere). A violation
    /// lands in [`FleetReport::audit_violation`] like any other.
    pub fn attach_sessions(&mut self, s: SessionSummary) {
        if self.audit_violation.is_none() {
            let offered = match &self.faults {
                Some(f) => f.offered,
                None => self.placements.len(),
            };
            self.audit_violation = audit_sessions(&s, &self.replicas, offered);
        }
        self.sessions = Some(s);
    }

    /// Wraps a single replica's report as a degenerate fleet: the
    /// single-replica serving path stays bit-identical (the report is
    /// embedded untouched, per-class percentiles included) and the audit
    /// still runs over the trivial placement log, token conservation
    /// included (the loop's tally against the report's own counts).
    pub fn single(router: RouterPolicy, report: SchedReport) -> Self {
        let arrived: usize = report.per_class.iter().map(|c| c.arrived).sum();
        let placements: Vec<Placement> = (0..arrived).map(|id| (id, 0)).collect();
        let counted = report.token_samples;
        let replicas = vec![report];
        let audit_violation =
            audit(&replicas, &placements, None).or_else(|| audit_tokens(&replicas, counted));
        Self {
            router,
            per_class: replicas[0].per_class.clone(),
            replicas,
            placements,
            audit_violation,
            faults: None,
            sessions: None,
            slo_burn: None,
        }
    }

    /// Total requests arrived across the fleet.
    pub fn total_arrived(&self) -> usize {
        self.per_class.iter().map(|c| c.arrived).sum()
    }

    /// The placement log as text, one `arrival -> replica` line per
    /// request — the byte-identical determinism artifact.
    pub fn placement_log(&self) -> String {
        let mut out = String::new();
        for &(id, replica) in &self.placements {
            out.push_str(&format!("{id} -> r{replica}\n"));
        }
        out
    }

    /// The fleet summary as printed by `longsight loadtest --replicas`.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "fleet report ({} router, {} replicas)\n",
            self.router.name(),
            self.replicas.len()
        );
        for (i, rep) in self.replicas.iter().enumerate() {
            let arrived: usize = rep.per_class.iter().map(|c| c.arrived).sum();
            let done: usize = rep.per_class.iter().map(|c| c.completed).sum();
            out.push_str(&format!(
                "  r{i}: arrived {arrived} done {done} | evict {} resume {} | hbm peak {}/{} | drex peak {}/{}\n",
                rep.preemptions,
                rep.resumes,
                rep.pages.peak_hbm,
                rep.pages.hbm_limit,
                rep.pages.peak_drex,
                rep.pages.drex_capacity,
            ));
        }
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
        if let Some(f) = &self.faults {
            let done: usize = self.per_class.iter().map(|c| c.completed).sum();
            let goodput = if f.offered == 0 {
                100.0
            } else {
                100.0 * done as f64 / f.offered as f64
            };
            out.push_str(&format!(
                "  faults: crashes {} | brownouts {} | redispatched {} | shed {}\n",
                f.crashes,
                f.brownouts,
                f.redispatches.len(),
                f.shed.len(),
            ));
            let downtime: Vec<String> = f
                .downtime_ns
                .iter()
                .enumerate()
                .map(|(i, &ns)| format!("r{i} {:.2}s", ns / 1e9))
                .collect();
            out.push_str(&format!("  downtime: {}\n", downtime.join(" ")));
            out.push_str(&format!(
                "  shed by class: interactive {} batch {} best-effort {}\n",
                f.shed_of(SloClass::Interactive),
                f.shed_of(SloClass::Batch),
                f.shed_of(SloClass::BestEffort),
            ));
            out.push_str(&format!(
                "  goodput: {done} completed of {} offered ({goodput:.1}%)\n",
                f.offered
            ));
        }
        if let Some(s) = &self.sessions {
            out.push_str(&s.to_text());
        }
        if let Some(b) = &self.slo_burn {
            out.push_str(&b.to_text());
        }
        match &self.audit_violation {
            None => out.push_str("  audit: ok (each arrival placed once, arrivals conserved)\n"),
            Some(v) => out.push_str(&format!("  audit: VIOLATION — {v}\n")),
        }
        out
    }
}

/// The cross-replica invariants:
///
/// 1. No arrival id appears twice in the placement log, and no placed
///    arrival was also shed.
/// 2. Replica indices in the log are in range.
/// 3. Conservation per replica: the requests a replica saw arrive are
///    exactly the ones the router placed on it plus the ones redispatched
///    onto it after a crash.
/// 4. Conservation across the fleet: every offered arrival is placed once
///    or shed with a recorded reason — never lost.
/// 5. Every replica's own page-ledger audit is clean.
fn audit(
    replicas: &[SchedReport],
    placements: &[Placement],
    faults: Option<&FleetFaultSummary>,
) -> Option<String> {
    let offered = match faults {
        Some(f) => f.offered,
        None => placements.len(),
    };
    let mut seen = vec![false; offered];
    let mut per_replica = vec![0usize; replicas.len()];
    for &(id, replica) in placements {
        if replica >= replicas.len() {
            return Some(format!("arrival {id} placed on unknown replica {replica}"));
        }
        // Ids are assigned in arrival order, so any id at or past the
        // offered count has to be a duplicate-or-corrupt entry.
        if id >= seen.len() || seen[id] {
            return Some(format!("arrival {id} placed twice"));
        }
        seen[id] = true;
        per_replica[replica] += 1;
    }
    if let Some(f) = faults {
        for s in &f.shed {
            if s.id >= seen.len() {
                return Some(format!("shed arrival {} was never offered", s.id));
            }
            if seen[s.id] {
                return Some(format!("arrival {} both placed and shed", s.id));
            }
            seen[s.id] = true;
        }
        for r in &f.redispatches {
            if r.to >= replicas.len() || r.from >= replicas.len() {
                return Some(format!(
                    "redispatch of {} names unknown replica {} -> {}",
                    r.id, r.from, r.to
                ));
            }
            if r.id >= offered || !seen[r.id] {
                return Some(format!("redispatched arrival {} was never placed", r.id));
            }
            per_replica[r.to] += 1;
        }
        if placements.len() + f.shed.len() != offered {
            return Some(format!(
                "{} placements + {} shed != {} offered (arrivals lost)",
                placements.len(),
                f.shed.len(),
                offered
            ));
        }
    }
    let mut total = 0usize;
    for (i, rep) in replicas.iter().enumerate() {
        let arrived: usize = rep.per_class.iter().map(|c| c.arrived).sum();
        if arrived != per_replica[i] {
            return Some(format!(
                "replica {i} saw {arrived} arrivals but was routed {}",
                per_replica[i]
            ));
        }
        total += arrived;
        if rep.leaked_pages != 0 {
            return Some(format!("replica {i} leaked {} pages", rep.leaked_pages));
        }
        if let Some(v) = &rep.invariant_violation {
            return Some(format!("replica {i} ledger: {v}"));
        }
    }
    let routed = placements.len() + faults.map_or(0, |f| f.redispatches.len());
    if total != routed {
        return Some(format!(
            "{total} arrivals across replicas but {routed} routed (placements + redispatches)"
        ));
    }
    None
}

/// Token conservation: the token-latency samples every replica's serving
/// loop tallied (`min(decoding, 64)` per decode step, summed) must all be
/// in the merged class counts, whose total `len()` is `counted`. Skipped
/// when a report carries no loop tally (a scheduler driven without a
/// serving loop).
fn audit_tokens(replicas: &[SchedReport], counted: usize) -> Option<String> {
    let mut tallied = 0usize;
    for rep in replicas {
        tallied += rep.loop_token_samples?;
    }
    (tallied != counted).then(|| {
        format!("serving loops tallied {tallied} token samples but the class counts hold {counted}")
    })
}

/// The session-workload invariants (see [`FleetReport::attach_sessions`]):
///
/// 1. Every pull names two distinct in-range replicas, an offered arrival,
///    and a positive page count.
/// 2. Pin conservation: the prefix pins the replicas recorded between them
///    are exactly the local hits plus the pulls — a pulled prefix is pinned
///    on its destination, so nothing is pinned that was neither hit locally
///    nor pulled from elsewhere.
/// 3. Turn conservation: every follow-up turn (turns minus the opening turn
///    of each session) was priced exactly one way — local hit, pull, or
///    cold re-prefill — or shed before placement.
fn audit_sessions(s: &SessionSummary, replicas: &[SchedReport], offered: usize) -> Option<String> {
    for p in &s.pulls {
        if p.from >= replicas.len() || p.to >= replicas.len() {
            return Some(format!(
                "pull of {} names unknown replica {} -> {}",
                p.id, p.from, p.to
            ));
        }
        if p.from == p.to {
            return Some(format!(
                "pull of {} copies replica {} onto itself",
                p.id, p.from
            ));
        }
        if p.id >= offered {
            return Some(format!("pull of {} was never offered", p.id));
        }
        if p.pages == 0 {
            return Some(format!("pull of {} moved zero pages", p.id));
        }
    }
    let pinned: usize = replicas.iter().map(|r| r.pages.prefix_hits).sum();
    if pinned != s.prefix_hits + s.pulls.len() {
        return Some(format!(
            "{pinned} prefix pins across replicas but {} local hits + {} pulls recorded",
            s.prefix_hits,
            s.pulls.len()
        ));
    }
    if s.turns < s.sessions {
        return Some(format!(
            "{} turns for {} sessions (every session opens with a turn)",
            s.turns, s.sessions
        ));
    }
    let follow_ups = s.turns - s.sessions;
    if s.prefix_hits + s.pulls.len() + s.cold_turns + s.shed_turns != follow_ups {
        return Some(format!(
            "{} hits + {} pulls + {} cold + {} shed != {follow_ups} follow-up turns (turns lost)",
            s.prefix_hits,
            s.pulls.len(),
            s.cold_turns,
            s.shed_turns
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::PageStats;
    use crate::scheduler::SchedPolicy;

    fn report(arrived_per_class: [usize; 3]) -> SchedReport {
        let mut per_class: [ClassReport; 3] = Default::default();
        for (c, &n) in per_class.iter_mut().zip(&arrived_per_class) {
            c.arrived = n;
            c.completed = n;
        }
        SchedReport {
            policy: SchedPolicy::SloAware,
            per_class,
            preemptions: 0,
            resumes: 0,
            restore_charged_ns: 0.0,
            prefill_chunks: 0,
            prefill_work_ns: 0.0,
            pages: PageStats {
                hbm_limit: 10,
                drex_capacity: 10,
                ..Default::default()
            },
            leaked_pages: 0,
            token_samples: 0,
            loop_token_samples: None,
            invariant_violation: None,
        }
    }

    fn no_samples() -> [(LatencyCounts, Vec<f64>); 3] {
        Default::default()
    }

    #[test]
    fn clean_fleet_passes_the_audit() {
        let f = FleetReport::assemble_with_faults(
            RouterPolicy::JsqSpillover,
            vec![report([1, 1, 0]), report([1, 0, 1])],
            vec![(0, 0), (1, 1), (2, 0), (3, 1)],
            no_samples(),
            None,
        );
        assert_eq!(f.audit_violation, None);
        assert_eq!(f.total_arrived(), 4);
        assert_eq!(f.per_class[0].arrived, 2);
        assert_eq!(f.placement_log(), "0 -> r0\n1 -> r1\n2 -> r0\n3 -> r1\n");
        assert!(f.to_text().contains("audit: ok"));
    }

    #[test]
    fn double_placement_is_caught() {
        let f = FleetReport::assemble_with_faults(
            RouterPolicy::RoundRobin,
            vec![report([2, 0, 0]), report([1, 0, 0])],
            vec![(0, 0), (0, 0), (1, 1)],
            no_samples(),
            None,
        );
        assert!(f.audit_violation.as_deref().unwrap().contains("twice"));
    }

    #[test]
    fn lost_arrival_is_caught() {
        // Router placed 2 on replica 0, but replica 0 only saw 1 arrive.
        let f = FleetReport::assemble_with_faults(
            RouterPolicy::RoundRobin,
            vec![report([1, 0, 0]), report([1, 0, 0])],
            vec![(0, 0), (1, 0)],
            no_samples(),
            None,
        );
        assert!(f.audit_violation.is_some());
    }

    #[test]
    fn replica_ledger_violations_propagate() {
        let mut bad = report([1, 0, 0]);
        bad.leaked_pages = 3;
        let f = FleetReport::assemble_with_faults(
            RouterPolicy::JsqSpillover,
            vec![bad],
            vec![(0, 0)],
            no_samples(),
            None,
        );
        assert!(f.audit_violation.as_deref().unwrap().contains("leaked"));
    }

    #[test]
    fn fault_audit_accepts_placed_plus_shed_plus_redispatched() {
        // 5 offered: 4 placed (one later redispatched 0 -> 1), 1 shed.
        // Replica 0 saw 2 arrivals (ids 0, 2); replica 1 saw 3 (ids 1, 3
        // and the redispatched 0).
        let mut f = FleetFaultSummary::new(2, 5);
        f.crashes = 1;
        f.redispatches.push(RedispatchRecord {
            id: 0,
            from: 0,
            to: 1,
            at_ns: 1e9,
            reason: "replica-crash",
        });
        f.shed.push(ShedRecord {
            id: 4,
            class: SloClass::BestEffort,
            at_ns: 2e9,
            reason: "queue-cap",
        });
        let rep = FleetReport::assemble_with_faults(
            RouterPolicy::JsqSpillover,
            vec![report([2, 0, 0]), report([3, 0, 0])],
            vec![(0, 0), (1, 1), (2, 0), (3, 1)],
            no_samples(),
            Some(f),
        );
        assert_eq!(rep.audit_violation, None);
        let text = rep.to_text();
        assert!(text.contains("crashes 1"), "{text}");
        assert!(text.contains("redispatched 1"), "{text}");
        assert!(text.contains("shed 1"), "{text}");
        assert!(text.contains("goodput:"), "{text}");
        assert!(text.contains("downtime:"), "{text}");
    }

    #[test]
    fn fault_audit_catches_lost_and_double_counted_arrivals() {
        // Arrival 2 neither placed nor shed: lost.
        let lost = FleetReport::assemble_with_faults(
            RouterPolicy::JsqSpillover,
            vec![report([2, 0, 0])],
            vec![(0, 0), (1, 0)],
            no_samples(),
            Some(FleetFaultSummary::new(1, 3)),
        );
        assert!(lost
            .audit_violation
            .as_deref()
            .unwrap()
            .contains("arrivals lost"));
        // Arrival 1 both placed and shed.
        let mut f = FleetFaultSummary::new(1, 2);
        f.shed.push(ShedRecord {
            id: 1,
            class: SloClass::Interactive,
            at_ns: 0.0,
            reason: "queue-cap",
        });
        let dup = FleetReport::assemble_with_faults(
            RouterPolicy::JsqSpillover,
            vec![report([2, 0, 0])],
            vec![(0, 0), (1, 0)],
            no_samples(),
            Some(f),
        );
        assert!(dup
            .audit_violation
            .as_deref()
            .unwrap()
            .contains("both placed and shed"));
        // A redispatch of an arrival that was never placed.
        let mut f = FleetFaultSummary::new(2, 1);
        f.redispatches.push(RedispatchRecord {
            id: 7,
            from: 0,
            to: 1,
            at_ns: 0.0,
            reason: "replica-crash",
        });
        let ghost = FleetReport::assemble_with_faults(
            RouterPolicy::JsqSpillover,
            vec![report([1, 0, 0]), report([0, 0, 0])],
            vec![(0, 0)],
            no_samples(),
            Some(f),
        );
        assert!(ghost
            .audit_violation
            .as_deref()
            .unwrap()
            .contains("never placed"));
    }

    #[test]
    fn fault_free_summary_lines_are_absent() {
        let f = FleetReport::assemble_with_faults(
            RouterPolicy::JsqSpillover,
            vec![report([1, 0, 0])],
            vec![(0, 0)],
            no_samples(),
            None,
        );
        assert_eq!(f.faults, None);
        let text = f.to_text();
        assert!(!text.contains("faults:"), "{text}");
        assert!(!text.contains("goodput:"), "{text}");
        assert!(!text.contains("sessions:"), "{text}");
    }

    #[test]
    fn session_audit_accepts_conserved_pulls() {
        // 2 sessions x 2 turns: one follow-up hit locally on r0, the other
        // pulled r0 -> r1. Each pin shows up in exactly one replica's stats.
        let mut r0 = report([2, 0, 0]);
        r0.pages.prefix_hits = 1;
        let mut r1 = report([2, 0, 0]);
        r1.pages.prefix_hits = 1;
        let mut f = FleetReport::assemble_with_faults(
            RouterPolicy::Affinity,
            vec![r0, r1],
            vec![(0, 0), (1, 1), (2, 0), (3, 1)],
            no_samples(),
            None,
        );
        f.attach_sessions(SessionSummary {
            sessions: 2,
            turns: 4,
            prefix_hits: 1,
            cold_turns: 0,
            shed_turns: 0,
            pulls: vec![PullRecord {
                id: 3,
                hash: 0xfeed,
                from: 0,
                to: 1,
                pages: 4,
                at_ns: 1e9,
            }],
        });
        assert_eq!(f.audit_violation, None);
        let text = f.to_text();
        assert!(
            text.contains(
                "sessions: 2 sessions, 4 turns | prefix hits 1 | pulls 1 (4 pages) | cold 0"
            ),
            "{text}"
        );
    }

    #[test]
    fn session_audit_catches_bad_pulls_and_lost_turns() {
        let base = || {
            FleetReport::assemble_with_faults(
                RouterPolicy::Affinity,
                vec![report([2, 0, 0]), report([2, 0, 0])],
                vec![(0, 0), (1, 1), (2, 0), (3, 1)],
                no_samples(),
                None,
            )
        };
        let pull = |from: usize, to: usize, pages: usize| PullRecord {
            id: 3,
            hash: 1,
            from,
            to,
            pages,
            at_ns: 0.0,
        };
        let sess = |pulls: Vec<PullRecord>, hits: usize, cold: usize| SessionSummary {
            sessions: 2,
            turns: 4,
            prefix_hits: hits,
            cold_turns: cold,
            shed_turns: 0,
            pulls,
        };
        // Self-pull.
        let mut f = base();
        f.attach_sessions(sess(vec![pull(1, 1, 4)], 0, 1));
        assert!(f
            .audit_violation
            .as_deref()
            .unwrap()
            .contains("onto itself"));
        // Zero pages.
        let mut f = base();
        f.attach_sessions(sess(vec![pull(0, 1, 0)], 0, 1));
        assert!(f.audit_violation.as_deref().unwrap().contains("zero pages"));
        // Pin-count mismatch: summary claims a pull but no replica pinned.
        let mut f = base();
        f.attach_sessions(sess(vec![pull(0, 1, 4)], 0, 1));
        assert!(
            f.audit_violation
                .as_deref()
                .unwrap()
                .contains("prefix pins"),
            "{:?}",
            f.audit_violation
        );
        // Lost turn: 2 follow-ups but only 1 priced.
        let mut f = base();
        f.attach_sessions(sess(Vec::new(), 0, 1));
        assert!(
            f.audit_violation.as_deref().unwrap().contains("turns lost"),
            "{:?}",
            f.audit_violation
        );
    }

    #[test]
    fn session_audit_counts_shed_follow_ups() {
        // 2 sessions x 2 turns: turn 3 (a follow-up) was shed fleet-wide;
        // the other follow-up hit on r0. The shed turn closes the
        // follow-up identity and shows up in the text only when non-zero.
        let mut r0 = report([2, 0, 0]);
        r0.pages.prefix_hits = 1;
        let mut faults = FleetFaultSummary::new(2, 4);
        faults.shed.push(ShedRecord {
            id: 3,
            class: SloClass::Interactive,
            at_ns: 1e9,
            reason: "queue-cap",
        });
        let base = || {
            FleetReport::assemble_with_faults(
                RouterPolicy::Affinity,
                vec![r0.clone(), report([1, 0, 0])],
                vec![(0, 0), (1, 1), (2, 0)],
                no_samples(),
                Some(faults.clone()),
            )
        };
        let sess = |shed_turns: usize| SessionSummary {
            sessions: 2,
            turns: 4,
            prefix_hits: 1,
            cold_turns: 0,
            shed_turns,
            pulls: Vec::new(),
        };
        let mut f = base();
        f.attach_sessions(sess(1));
        assert_eq!(f.audit_violation, None);
        assert!(
            f.to_text().contains("| cold 0 | shed 1\n"),
            "{}",
            f.to_text()
        );
        let mut lost = base();
        lost.attach_sessions(sess(0));
        assert!(lost
            .audit_violation
            .as_deref()
            .unwrap()
            .contains("turns lost"));
        assert!(!sess(0).to_text().contains("shed"));
    }

    #[test]
    fn roll_up_merges_samples_not_percentiles() {
        // Replica 0 has fast tokens, replica 1 slow ones; the fleet p99
        // must come from the merged population, not an average. The merged
        // request samples arrive in descending order: the roll-up selects
        // ranks and does not rely on sorted input.
        let mut samples = no_samples();
        samples[0].0.add(9.0, 1);
        samples[0].0.add(1.0, 3);
        samples[0].1 = vec![40.0, 30.0, 20.0, 10.0];
        let f = FleetReport::assemble_with_faults(
            RouterPolicy::JsqSpillover,
            vec![report([2, 0, 0]), report([1, 0, 0])],
            vec![(0, 0), (1, 0), (2, 1)],
            samples,
            None,
        );
        assert_eq!(f.per_class[0].p99_token_ms, 9.0);
        assert_eq!(f.per_class[0].p50_token_ms, 1.0);
        assert_eq!(f.per_class[0].p99_request_ms, 40.0);
        assert_eq!(f.per_class[0].p50_request_ms, 20.0, "lower median");
    }

    #[test]
    fn token_audit_flags_a_tally_the_counts_do_not_hold() {
        // Two replicas whose loops tallied 3 + 2 token samples.
        let tallied = |n: usize| {
            let mut r = report([1, 0, 0]);
            r.loop_token_samples = Some(n);
            r
        };
        let assemble = |held: usize| {
            let mut samples = no_samples();
            samples[0].0.add(12.5, held);
            FleetReport::assemble_with_faults(
                RouterPolicy::JsqSpillover,
                vec![tallied(3), tallied(2)],
                vec![(0, 0), (1, 1)],
                samples,
                None,
            )
        };
        assert_eq!(assemble(5).audit_violation, None);
        let lost = assemble(4);
        let v = lost.audit_violation.as_deref().unwrap();
        assert!(
            v.contains("tallied 5 token samples") && v.contains("hold 4"),
            "{v}"
        );
        assert!(lost.to_text().contains("audit: VIOLATION"));

        // The single-replica wrapper checks the loop's tally against the
        // report's own counts.
        let mut one = tallied(7);
        one.token_samples = 7;
        assert_eq!(
            FleetReport::single(RouterPolicy::RoundRobin, one.clone()).audit_violation,
            None
        );
        one.token_samples = 6;
        let v = FleetReport::single(RouterPolicy::RoundRobin, one).audit_violation;
        assert!(v
            .unwrap()
            .contains("tallied 7 token samples but the class counts hold 6"));

        // No loop tally (a scheduler driven directly): nothing to check.
        let mut untallied = report([1, 0, 0]);
        untallied.token_samples = 3;
        assert_eq!(
            FleetReport::single(RouterPolicy::RoundRobin, untallied).audit_violation,
            None
        );
    }
}
