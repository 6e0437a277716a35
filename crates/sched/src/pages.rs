//! Paged KV-cache memory manager for the two-tier HBM / DReX hierarchy.
//!
//! LongSight's hybrid attention splits every request's KV state into an
//! HBM-resident sliding window (plus sinks) and a DReX-resident long-range
//! tail. This module tracks both tiers at page (block) granularity against
//! the configured device capacities, so admission control becomes a memory
//! decision: a request is admitted iff its window pages fit under the HBM
//! watermark *and* its tail pages fit in DReX.
//!
//! The manager is pure bookkeeping — it never computes latency — and it
//! checks its page-count invariants (per-request sums match the device
//! totals, capacities respected in enforcing mode) after every mutation in
//! debug builds. [`PagedKvManager::check_invariants`] is public so tests can
//! assert them in release builds too.

/// Page-granular capacity description of the two KV tiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageConfig {
    /// Tokens per KV page (block granularity of alloc/free).
    pub page_tokens: usize,
    /// HBM pages available for KV windows (device capacity minus weights).
    pub hbm_capacity_pages: usize,
    /// DReX pages available for long-range tails.
    pub drex_capacity_pages: usize,
    /// High watermark as a fraction of HBM capacity. In enforcing mode no
    /// allocation may push HBM usage past `floor(capacity × watermark)`;
    /// the headroom above it absorbs transient growth.
    pub hbm_watermark: f64,
}

impl PageConfig {
    /// A configuration with effectively unlimited capacity — used when the
    /// serving system cannot describe its device geometry, so the scheduler
    /// falls back to feasibility-only admission while still tracking pages.
    pub fn unbounded(page_tokens: usize) -> Self {
        Self {
            page_tokens: page_tokens.max(1),
            hbm_capacity_pages: usize::MAX / 4,
            drex_capacity_pages: usize::MAX / 4,
            hbm_watermark: 1.0,
        }
    }

    /// Pages needed to hold `tokens` tokens (zero tokens → zero pages).
    pub fn pages_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.page_tokens.max(1))
    }

    /// The enforced HBM ceiling: `floor(capacity × watermark)` pages.
    ///
    /// Floor semantics are exact on exact products: the binary product of
    /// e.g. `0.29 × 100` is `28.999…96`, which a bare `as usize` cast
    /// truncated to 28 instead of the mathematically intended 29 (and
    /// `0.3 × 10` to 2 instead of 3). The product is therefore snapped to
    /// the nearest integer first when it sits within a relative epsilon of
    /// one, and floored otherwise.
    pub fn hbm_limit_pages(&self) -> usize {
        let w = self.hbm_watermark.clamp(0.0, 1.0);
        let product = self.hbm_capacity_pages as f64 * w;
        let nearest = product.round();
        let limit = if (product - nearest).abs() <= 1e-9 * nearest.max(1.0) {
            nearest
        } else {
            product.floor()
        };
        (limit as usize).min(self.hbm_capacity_pages)
    }
}

/// Why an allocation was refused (enforcing mode only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The HBM watermark would be exceeded.
    HbmExhausted {
        /// Pages requested.
        requested: usize,
        /// Pages currently in use.
        used: usize,
        /// The watermark-derived ceiling.
        limit: usize,
    },
    /// The DReX device would overflow.
    DrexExhausted {
        /// Pages requested.
        requested: usize,
        /// Pages currently in use.
        used: usize,
        /// Device capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::HbmExhausted {
                requested,
                used,
                limit,
            } => write!(
                f,
                "HBM pages exhausted: want {requested}, {used}/{limit} in use"
            ),
            AllocError::DrexExhausted {
                requested,
                used,
                capacity,
            } => write!(
                f,
                "DReX pages exhausted: want {requested}, {used}/{capacity} in use"
            ),
        }
    }
}

impl std::error::Error for AllocError {}

/// Point-in-time usage summary of the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageStats {
    /// HBM pages currently allocated.
    pub hbm_used: usize,
    /// DReX pages currently allocated.
    pub drex_used: usize,
    /// Peak HBM pages ever allocated.
    pub peak_hbm: usize,
    /// Peak DReX pages ever allocated.
    pub peak_drex: usize,
    /// The watermark-derived HBM ceiling.
    pub hbm_limit: usize,
    /// DReX device capacity in pages.
    pub drex_capacity: usize,
    /// Requests currently holding pages.
    pub holders: usize,
    /// Prefix-cache carve-out in pages (0 = cache disabled).
    pub prefix_capacity: usize,
    /// Prefix pages currently cached (pinned or reclaimable).
    pub prefix_pages: usize,
    /// Outstanding prefix pins (one per live request holding a prefix).
    pub prefix_pinned: usize,
    /// Prefix pins that hit a cached entry.
    pub prefix_hits: usize,
    /// Prefix pins that missed.
    pub prefix_misses: usize,
    /// Unpinned prefix entries reclaimed by LRU to make room.
    pub prefix_reclaims: usize,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    id: usize,
    hbm: usize,
    drex: usize,
}

/// One content-keyed prefix resident in the cache. Pages are shared: any
/// number of live requests may pin the same hash, and the frames are freed
/// only by LRU reclamation (refs == 0) or a crash wipe — never per-request.
#[derive(Debug, Clone, Copy)]
struct PrefixEntry {
    hash: u64,
    pages: usize,
    refs: usize,
    last_use: u64,
}

/// Block-granular allocator over the HBM window tier and the DReX tail tier.
///
/// In *enforcing* mode (`enforce = true`) allocations fail when they would
/// exceed the HBM watermark or the DReX capacity. In tracking mode every
/// allocation succeeds and the manager only records usage and peaks — this
/// is what the FIFO policy uses, where admission is decided by step
/// feasibility alone and pages are bookkeeping.
#[derive(Debug, Clone)]
pub struct PagedKvManager {
    cfg: PageConfig,
    /// `cfg.hbm_limit_pages()`, computed once: the configuration never
    /// changes after construction.
    hbm_limit: usize,
    enforce: bool,
    entries: Vec<Entry>,
    hbm_used: usize,
    drex_used: usize,
    peak_hbm: usize,
    peak_drex: usize,
    prefix: Vec<PrefixEntry>,
    prefix_capacity: usize,
    prefix_used: usize,
    prefix_clock: u64,
    prefix_hits: usize,
    prefix_misses: usize,
    prefix_reclaims: usize,
}

impl PagedKvManager {
    /// Creates a manager over `cfg`, enforcing capacities iff `enforce`.
    pub fn new(cfg: PageConfig, enforce: bool) -> Self {
        Self {
            cfg,
            hbm_limit: cfg.hbm_limit_pages(),
            enforce,
            entries: Vec::new(),
            hbm_used: 0,
            drex_used: 0,
            peak_hbm: 0,
            peak_drex: 0,
            prefix: Vec::new(),
            prefix_capacity: 0,
            prefix_used: 0,
            prefix_clock: 0,
            prefix_hits: 0,
            prefix_misses: 0,
            prefix_reclaims: 0,
        }
    }

    /// The capacity configuration.
    pub fn config(&self) -> &PageConfig {
        &self.cfg
    }

    /// The enforced HBM ceiling in pages, [`PageConfig::hbm_limit_pages`]
    /// of the configuration.
    pub(crate) fn hbm_limit(&self) -> usize {
        self.hbm_limit
    }

    /// Whether capacities are enforced.
    pub fn is_enforcing(&self) -> bool {
        self.enforce
    }

    fn idx(&self, id: usize) -> Option<usize> {
        self.entries.iter().position(|e| e.id == id)
    }

    fn bump_peaks(&mut self) {
        self.peak_hbm = self.peak_hbm.max(self.hbm_used);
        self.peak_drex = self.peak_drex.max(self.drex_used);
    }

    /// Whether `extra` more HBM pages would fit under the watermark ceiling.
    pub fn hbm_fits(&self, extra: usize) -> bool {
        self.hbm_used + extra <= self.hbm_limit
    }

    /// Whether `extra` more DReX pages would fit in the device.
    pub fn drex_fits(&self, extra: usize) -> bool {
        self.drex_used + extra <= self.cfg.drex_capacity_pages
    }

    /// Allocates `hbm` window pages and `drex` tail pages for request `id`.
    ///
    /// The request must not already hold pages. In enforcing mode the
    /// allocation is all-or-nothing: on error no state changes.
    ///
    /// # Errors
    ///
    /// Returns the exhausted tier in enforcing mode.
    pub fn try_alloc(&mut self, id: usize, hbm: usize, drex: usize) -> Result<(), AllocError> {
        debug_assert!(
            self.idx(id).is_none(),
            "request {id} already holds pages; free before re-allocating"
        );
        if self.enforce {
            if !self.hbm_fits(hbm) {
                return Err(AllocError::HbmExhausted {
                    requested: hbm,
                    used: self.hbm_used,
                    limit: self.hbm_limit,
                });
            }
            if !self.drex_fits(drex) {
                return Err(AllocError::DrexExhausted {
                    requested: drex,
                    used: self.drex_used,
                    capacity: self.cfg.drex_capacity_pages,
                });
            }
        }
        self.entries.push(Entry { id, hbm, drex });
        self.hbm_used += hbm;
        self.drex_used += drex;
        self.bump_peaks();
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(())
    }

    /// Releases request `id`'s HBM window pages (eviction to DReX-resident
    /// state), keeping its tail pages. Returns the pages freed.
    pub fn release_hbm(&mut self, id: usize) -> usize {
        let Some(i) = self.idx(id) else { return 0 };
        let freed = self.entries[i].hbm;
        self.entries[i].hbm = 0;
        self.hbm_used -= freed;
        debug_assert_eq!(self.check_invariants(), Ok(()));
        freed
    }

    /// Re-acquires `hbm` window pages for an evicted request `id` (resume).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::HbmExhausted`] in enforcing mode when the
    /// watermark would be breached.
    pub fn regain_hbm(&mut self, id: usize, hbm: usize) -> Result<(), AllocError> {
        let Some(i) = self.idx(id) else {
            return self.try_alloc(id, hbm, 0);
        };
        if self.enforce && !self.hbm_fits(hbm) {
            return Err(AllocError::HbmExhausted {
                requested: hbm,
                used: self.hbm_used,
                limit: self.hbm_limit,
            });
        }
        self.entries[i].hbm += hbm;
        self.hbm_used += hbm;
        self.bump_peaks();
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(())
    }

    /// Releases request `id`'s DReX tail pages (degradation to window-only
    /// attention abandons the long-range tail). Returns the pages freed.
    pub fn release_drex(&mut self, id: usize) -> usize {
        let Some(i) = self.idx(id) else { return 0 };
        let freed = self.entries[i].drex;
        self.entries[i].drex = 0;
        self.drex_used -= freed;
        debug_assert_eq!(self.check_invariants(), Ok(()));
        freed
    }

    /// Frees everything request `id` holds (completion, failure, rejection
    /// of a resumed request). Returns `(hbm, drex)` pages freed.
    pub fn free_all(&mut self, id: usize) -> (usize, usize) {
        let Some(i) = self.idx(id) else { return (0, 0) };
        let e = self.entries.swap_remove(i);
        self.hbm_used -= e.hbm;
        self.drex_used -= e.drex;
        debug_assert_eq!(self.check_invariants(), Ok(()));
        (e.hbm, e.drex)
    }

    /// Pages currently held by request `id`, as `(hbm, drex)`.
    pub fn pages_of(&self, id: usize) -> Option<(usize, usize)> {
        self.idx(id)
            .map(|i| (self.entries[i].hbm, self.entries[i].drex))
    }

    /// IDs of all requests currently holding pages (unordered).
    pub fn holder_ids(&self) -> Vec<usize> {
        self.entries.iter().map(|e| e.id).collect()
    }

    /// HBM pages currently in use.
    pub fn hbm_used(&self) -> usize {
        self.hbm_used
    }

    /// DReX pages currently in use.
    pub fn drex_used(&self) -> usize {
        self.drex_used
    }

    /// Arms the content-keyed prefix cache with a carve-out of `pages`
    /// DReX-tier pages (0 disables it). The carve-out is a dedicated pool:
    /// cached prefixes never compete with per-request tail pages.
    pub fn set_prefix_capacity(&mut self, pages: usize) {
        self.prefix_capacity = pages;
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// The prefix-cache carve-out in pages (0 = disabled).
    pub fn prefix_capacity(&self) -> usize {
        self.prefix_capacity
    }

    /// Pages held by the cached prefix `hash`, if resident. Read-only: does
    /// not count as a hit or bump recency.
    pub fn prefix_lookup(&self, hash: u64) -> Option<usize> {
        self.prefix.iter().find(|p| p.hash == hash).map(|p| p.pages)
    }

    /// Pins the cached prefix `hash` for a resuming request, returning its
    /// page count. A pin increments the entry's refcount and shields it
    /// from LRU reclamation until [`Self::prefix_unpin`]. Counts as a hit;
    /// a miss (`None`) is counted too.
    pub fn prefix_pin(&mut self, hash: u64) -> Option<usize> {
        self.prefix_clock += 1;
        let clock = self.prefix_clock;
        match self.prefix.iter_mut().find(|p| p.hash == hash) {
            Some(p) => {
                p.refs += 1;
                p.last_use = clock;
                self.prefix_hits += 1;
                Some(p.pages)
            }
            None => {
                self.prefix_misses += 1;
                None
            }
        }
    }

    /// Drops one pin on prefix `hash`. The frames stay cached (refs may hit
    /// zero, making the entry reclaimable) — shared pages are never freed
    /// per-request.
    pub fn prefix_unpin(&mut self, hash: u64) {
        if let Some(p) = self.prefix.iter_mut().find(|p| p.hash == hash) {
            debug_assert!(p.refs > 0, "unpinning prefix {hash:#x} with no pins");
            p.refs = p.refs.saturating_sub(1);
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// Publishes `pages` pages under content key `hash`, reclaiming
    /// least-recently-used unpinned entries to make room. Returns `false`
    /// (and changes nothing beyond reclamation already performed) when the
    /// cache is disabled, the prefix alone exceeds the carve-out, or every
    /// resident page is pinned. Re-inserting a resident hash only bumps its
    /// recency.
    pub fn prefix_insert(&mut self, hash: u64, pages: usize) -> bool {
        if self.prefix_capacity == 0 || pages == 0 || pages > self.prefix_capacity {
            return false;
        }
        self.prefix_clock += 1;
        let clock = self.prefix_clock;
        if let Some(p) = self.prefix.iter_mut().find(|p| p.hash == hash) {
            p.last_use = clock;
            debug_assert_eq!(
                p.pages, pages,
                "prefix {hash:#x} re-published with a different page count"
            );
            return true;
        }
        while self.prefix_used + pages > self.prefix_capacity {
            let victim = self
                .prefix
                .iter()
                .enumerate()
                .filter(|(_, p)| p.refs == 0)
                .min_by_key(|(_, p)| p.last_use)
                .map(|(i, _)| i);
            let Some(i) = victim else { return false };
            let evicted = self.prefix.remove(i);
            self.prefix_used -= evicted.pages;
            self.prefix_reclaims += 1;
        }
        self.prefix.push(PrefixEntry {
            hash,
            pages,
            refs: 0,
            last_use: clock,
        });
        self.prefix_used += pages;
        debug_assert_eq!(self.check_invariants(), Ok(()));
        true
    }

    /// Total outstanding pins across all cached prefixes. The fleet audit
    /// requires this to equal the number of live requests holding a prefix.
    pub fn prefix_pinned_refs(&self) -> usize {
        self.prefix.iter().map(|p| p.refs).sum()
    }

    /// Pages belonging to currently-pinned prefixes (the telemetry
    /// sampler's sparkline; shared pages count once however many pins
    /// hold them).
    pub fn prefix_pinned_pages(&self) -> usize {
        self.prefix
            .iter()
            .filter(|p| p.refs > 0)
            .map(|p| p.pages)
            .sum()
    }

    /// Wipes the prefix cache (replica crash: the pooled-tier content is
    /// gone). All pins are implicitly dropped — callers must clear their
    /// per-request prefix handles rather than unpin afterwards. Returns the
    /// pages dropped.
    pub fn prefix_crash_clear(&mut self) -> usize {
        let dropped = self.prefix_used;
        self.prefix.clear();
        self.prefix_used = 0;
        debug_assert_eq!(self.check_invariants(), Ok(()));
        dropped
    }

    /// Usage summary.
    pub fn stats(&self) -> PageStats {
        PageStats {
            hbm_used: self.hbm_used,
            drex_used: self.drex_used,
            peak_hbm: self.peak_hbm,
            peak_drex: self.peak_drex,
            hbm_limit: self.hbm_limit,
            drex_capacity: self.cfg.drex_capacity_pages,
            holders: self.entries.len(),
            prefix_capacity: self.prefix_capacity,
            prefix_pages: self.prefix_used,
            prefix_pinned: self.prefix_pinned_refs(),
            prefix_hits: self.prefix_hits,
            prefix_misses: self.prefix_misses,
            prefix_reclaims: self.prefix_reclaims,
        }
    }

    /// Verifies the page-count invariants: per-request sums match the
    /// device totals, IDs are unique, and (in enforcing mode) the HBM
    /// watermark and DReX capacity were never exceeded.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let hbm_sum: usize = self.entries.iter().map(|e| e.hbm).sum();
        let drex_sum: usize = self.entries.iter().map(|e| e.drex).sum();
        if hbm_sum != self.hbm_used {
            return Err(format!(
                "HBM ledger drift: entries sum {hbm_sum} != used {}",
                self.hbm_used
            ));
        }
        if drex_sum != self.drex_used {
            return Err(format!(
                "DReX ledger drift: entries sum {drex_sum} != used {}",
                self.drex_used
            ));
        }
        for (i, e) in self.entries.iter().enumerate() {
            if self.entries[i + 1..].iter().any(|o| o.id == e.id) {
                return Err(format!("duplicate page-table entry for request {}", e.id));
            }
        }
        if self.enforce {
            let limit = self.hbm_limit;
            if self.hbm_used > limit {
                return Err(format!(
                    "HBM watermark exceeded: {} > {limit} pages",
                    self.hbm_used
                ));
            }
            if self.drex_used > self.cfg.drex_capacity_pages {
                return Err(format!(
                    "DReX capacity exceeded: {} > {} pages",
                    self.drex_used, self.cfg.drex_capacity_pages
                ));
            }
            if self.peak_hbm > limit {
                return Err(format!(
                    "HBM watermark was exceeded at peak: {} > {limit} pages",
                    self.peak_hbm
                ));
            }
        }
        let prefix_sum: usize = self.prefix.iter().map(|p| p.pages).sum();
        if prefix_sum != self.prefix_used {
            return Err(format!(
                "prefix ledger drift: entries sum {prefix_sum} != used {}",
                self.prefix_used
            ));
        }
        if self.prefix_used > self.prefix_capacity {
            return Err(format!(
                "prefix carve-out exceeded: {} > {} pages",
                self.prefix_used, self.prefix_capacity
            ));
        }
        for (i, p) in self.prefix.iter().enumerate() {
            if self.prefix[i + 1..].iter().any(|o| o.hash == p.hash) {
                return Err(format!("duplicate prefix entry for hash {:#x}", p.hash));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{SchedConfig, Scheduler};

    fn cfg() -> PageConfig {
        PageConfig {
            page_tokens: 1024,
            hbm_capacity_pages: 100,
            drex_capacity_pages: 1000,
            hbm_watermark: 0.9,
        }
    }

    #[test]
    fn pages_round_up() {
        let c = cfg();
        assert_eq!(c.pages_for(0), 0);
        assert_eq!(c.pages_for(1), 1);
        assert_eq!(c.pages_for(1024), 1);
        assert_eq!(c.pages_for(1025), 2);
    }

    #[test]
    fn watermark_floors() {
        assert_eq!(cfg().hbm_limit_pages(), 90);
    }

    #[test]
    fn watermark_exact_products_do_not_truncate() {
        // Exact mathematical products must floor to themselves even when
        // the binary float product lands just below the integer
        // (0.29 × 100 = 28.999…96 as f64, 0.3 × 10 = 2.999…96).
        // Every case also checks the ceilings cached at construction: the
        // page manager's, and the scheduler's resume ceiling with the case
        // as its low watermark under a full high watermark.
        let at = |capacity: usize, watermark: f64| {
            let cfg = PageConfig {
                page_tokens: 1024,
                hbm_capacity_pages: capacity,
                drex_capacity_pages: 0,
                hbm_watermark: watermark,
            };
            let limit = cfg.hbm_limit_pages();
            assert_eq!(PagedKvManager::new(cfg, true).hbm_limit(), limit);
            let mut sched = SchedConfig::slo_aware(cfg, 1024, 1024);
            assert_eq!(Scheduler::new(sched.clone()).resume_limit_pages(), limit);
            sched.pages.hbm_watermark = 1.0;
            assert_eq!(Scheduler::new(sched).resume_limit_pages(), limit);
            limit
        };
        assert_eq!(at(100, 0.29), 29);
        assert_eq!(at(10, 0.3), 3);
        assert_eq!(at(10, 0.7), 7);
        assert_eq!(at(1000, 0.001), 1);
        assert_eq!(at(22_00, 0.01), 22);
        // Non-exact products still floor.
        assert_eq!(at(100, 0.299), 29);
        assert_eq!(at(100, 0.291), 29);
        assert_eq!(at(3, 0.5), 1);
        assert_eq!(at(7, 0.33), 2);
        // Degenerate watermarks clamp to the full range.
        assert_eq!(at(100, 0.0), 0);
        assert_eq!(at(100, 1.0), 100);
        assert_eq!(at(100, 2.0), 100, "watermark clamps to 1");
        assert_eq!(at(100, -1.0), 0, "watermark clamps to 0");
        // The ceiling never exceeds the device capacity, even where the
        // capacity is not exactly representable as f64.
        let huge = usize::MAX / 4;
        assert_eq!(at(huge, 1.0), huge);
    }

    #[test]
    fn alloc_free_balances() {
        let mut m = PagedKvManager::new(cfg(), true);
        m.try_alloc(1, 10, 50).unwrap();
        m.try_alloc(2, 20, 100).unwrap();
        assert_eq!(m.hbm_used(), 30);
        assert_eq!(m.drex_used(), 150);
        assert_eq!(m.free_all(1), (10, 50));
        assert_eq!(m.free_all(2), (20, 100));
        assert_eq!(m.hbm_used(), 0);
        assert_eq!(m.drex_used(), 0);
        assert_eq!(m.stats().peak_hbm, 30);
        m.check_invariants().unwrap();
    }

    #[test]
    fn enforcing_refuses_past_watermark() {
        let mut m = PagedKvManager::new(cfg(), true);
        m.try_alloc(1, 85, 0).unwrap();
        let err = m.try_alloc(2, 10, 0).unwrap_err();
        assert!(matches!(err, AllocError::HbmExhausted { limit: 90, .. }));
        // All-or-nothing: the failed alloc left no residue.
        assert_eq!(m.hbm_used(), 85);
        assert!(m.pages_of(2).is_none());
        m.check_invariants().unwrap();
    }

    #[test]
    fn enforcing_refuses_drex_overflow() {
        let mut m = PagedKvManager::new(cfg(), true);
        let err = m.try_alloc(1, 0, 1001).unwrap_err();
        assert!(matches!(
            err,
            AllocError::DrexExhausted { capacity: 1000, .. }
        ));
    }

    #[test]
    fn tracking_mode_never_refuses() {
        let mut m = PagedKvManager::new(cfg(), false);
        m.try_alloc(1, 500, 5000).unwrap();
        assert_eq!(m.hbm_used(), 500);
        m.check_invariants().unwrap();
    }

    #[test]
    fn eviction_keeps_tail_and_resume_regains_window() {
        let mut m = PagedKvManager::new(cfg(), true);
        m.try_alloc(7, 30, 200).unwrap();
        assert_eq!(m.release_hbm(7), 30);
        assert_eq!(m.pages_of(7), Some((0, 200)));
        m.regain_hbm(7, 30).unwrap();
        assert_eq!(m.pages_of(7), Some((30, 200)));
        m.check_invariants().unwrap();
    }

    #[test]
    fn degradation_releases_tail() {
        let mut m = PagedKvManager::new(cfg(), true);
        m.try_alloc(3, 10, 400).unwrap();
        assert_eq!(m.release_drex(3), 400);
        assert_eq!(m.pages_of(3), Some((10, 0)));
        assert_eq!(m.drex_used(), 0);
    }

    #[test]
    fn missing_ids_are_noops() {
        let mut m = PagedKvManager::new(cfg(), true);
        assert_eq!(m.release_hbm(9), 0);
        assert_eq!(m.release_drex(9), 0);
        assert_eq!(m.free_all(9), (0, 0));
    }

    #[test]
    fn prefix_cache_disabled_by_default() {
        let mut m = PagedKvManager::new(cfg(), true);
        assert_eq!(m.prefix_capacity(), 0);
        assert!(!m.prefix_insert(0xabc, 4));
        assert_eq!(m.prefix_pin(0xabc), None);
        assert_eq!(m.stats().prefix_misses, 1);
        assert_eq!(m.stats().prefix_pages, 0);
    }

    #[test]
    fn prefix_pin_shares_and_unpin_keeps_frames() {
        let mut m = PagedKvManager::new(cfg(), true);
        m.set_prefix_capacity(16);
        assert!(m.prefix_insert(0xa, 6));
        // Two live sessions share the same frames: refcount 2, pages 6 once.
        assert_eq!(m.prefix_pin(0xa), Some(6));
        assert_eq!(m.prefix_pin(0xa), Some(6));
        assert_eq!(m.prefix_pinned_refs(), 2);
        assert_eq!(m.stats().prefix_pages, 6);
        assert_eq!(m.stats().prefix_hits, 2);
        // Unpinning drops refs but never the shared frames.
        m.prefix_unpin(0xa);
        m.prefix_unpin(0xa);
        assert_eq!(m.prefix_pinned_refs(), 0);
        assert_eq!(m.prefix_lookup(0xa), Some(6));
        m.check_invariants().unwrap();
    }

    #[test]
    fn prefix_lru_reclaims_only_unpinned() {
        let mut m = PagedKvManager::new(cfg(), true);
        m.set_prefix_capacity(10);
        assert!(m.prefix_insert(0x1, 4));
        assert!(m.prefix_insert(0x2, 4));
        m.prefix_pin(0x1);
        // 0x2 is older than nothing pinnable but 0x1 is pinned: inserting 6
        // pages must evict 0x2 (LRU unpinned), never 0x1.
        assert!(m.prefix_insert(0x3, 6));
        assert_eq!(m.prefix_lookup(0x1), Some(4));
        assert_eq!(m.prefix_lookup(0x2), None);
        assert_eq!(m.stats().prefix_reclaims, 1);
        // With 0x1 pinned and 0x3 too big to evict enough, a full-width
        // insert fails rather than touching pinned frames.
        m.prefix_pin(0x3);
        assert!(!m.prefix_insert(0x4, 8));
        assert_eq!(m.prefix_lookup(0x1), Some(4));
        assert_eq!(m.prefix_lookup(0x3), Some(6));
        m.check_invariants().unwrap();
    }

    #[test]
    fn prefix_reinsert_bumps_recency_not_pages() {
        let mut m = PagedKvManager::new(cfg(), true);
        m.set_prefix_capacity(8);
        assert!(m.prefix_insert(0x1, 4));
        assert!(m.prefix_insert(0x2, 4));
        // Re-publishing 0x1 makes 0x2 the LRU victim.
        assert!(m.prefix_insert(0x1, 4));
        assert!(m.prefix_insert(0x3, 4));
        assert_eq!(m.prefix_lookup(0x1), Some(4));
        assert_eq!(m.prefix_lookup(0x2), None);
        assert_eq!(m.stats().prefix_pages, 8);
    }

    #[test]
    fn prefix_crash_clear_wipes_everything() {
        let mut m = PagedKvManager::new(cfg(), true);
        m.set_prefix_capacity(16);
        m.prefix_insert(0x1, 4);
        m.prefix_insert(0x2, 8);
        m.prefix_pin(0x1);
        assert_eq!(m.prefix_crash_clear(), 12);
        assert_eq!(m.stats().prefix_pages, 0);
        assert_eq!(m.prefix_pinned_refs(), 0);
        assert_eq!(m.prefix_lookup(0x1), None);
        m.check_invariants().unwrap();
    }

    #[test]
    fn prefix_oversized_insert_refused() {
        let mut m = PagedKvManager::new(cfg(), true);
        m.set_prefix_capacity(4);
        assert!(!m.prefix_insert(0x1, 5));
        assert!(!m.prefix_insert(0x2, 0), "zero-page prefixes are refused");
        assert_eq!(m.stats().prefix_pages, 0);
    }
}
