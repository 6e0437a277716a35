//! Per-head offload timing (paper §7.4, §8.2).
//!
//! An NMA serving one head's sparse attention alternates between in-memory
//! filtering epochs and near-memory scoring:
//!
//! 1. **Filter** — PFUs scan Key Sign Objects bank-parallel; bitmap
//!    generation takes `d × 1.25 ns` per epoch (one dimension per cycle,
//!    compared against up to 16 queries in parallel).
//! 2. **Bitmap read** — the NMA reads one 128-bit bitmap per participating
//!    bank (120.4 ns latency, pipelined across the package's 8 channels).
//! 3. **Address generation** — 1,024 ns per epoch in the NMA memory
//!    controller.
//! 4. **Fetch + score** — surviving full-precision keys stream out of LPDDR
//!    (channel-interleaved; timed by the DRAM simulator) into the NMA dot
//!    product units (26.11 TFLOP/s aggregate across 8 NMAs); the two overlap
//!    and the phase is bounded by the slower of the two.
//! 5. **Top-k** — pipelined partial top-k insertion (hardware max k = 1,024).

use crate::layout::{ContextSlice, MAX_CONTEXT_SLICE_KEYS};
use crate::spm::SpmConfig;
use longsight_dram::{ChannelSim, DramTiming, Request};
use longsight_faults::FaultError;
use longsight_obs::{ArgVal, Recorder, TrackId};
use longsight_tensor::SimRng;

/// Device-wide hardware parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DrexParams {
    /// DRAM timing of the LPDDR5X channels.
    pub dram: DramTiming,
    /// Bitmap generation cost per key dimension, ns (RTL: 1.25 ns).
    pub pfu_dim_ns: f64,
    /// Bitmap read latency into the NMA, ns (RTL: 120.4 ns).
    pub bitmap_read_ns: f64,
    /// Address-generation overhead per epoch, ns (RTL: 1,024 ns).
    pub addr_gen_ns: f64,
    /// Per-NMA dot-product throughput, FLOPs per ns
    /// (26.11 TFLOP/s ÷ 8 NMAs = 3,264 FLOP/ns).
    pub nma_flops_per_ns: f64,
    /// Pipelined top-k insertion cost per surviving key, ns.
    pub topk_per_key_ns: f64,
    /// DCC cost per entry when merging partial per-slice top-k lists
    /// (`k` entries re-inserted per extra slice), ns.
    pub dcc_merge_per_entry_ns: f64,
    /// Maximum queries a PFU pass compares in parallel.
    pub pfu_query_batch: usize,
    /// Hardware top-k bound.
    pub max_k: usize,
    /// NMA scratchpad capacities (bounds survivor-address buffering).
    pub spm: SpmConfig,
}

impl DrexParams {
    /// The paper's configuration (§8.2, Table 2).
    pub fn paper() -> Self {
        Self {
            dram: DramTiming::lpddr5x_8533(),
            pfu_dim_ns: 1.25,
            bitmap_read_ns: 120.4,
            addr_gen_ns: 1024.0,
            nma_flops_per_ns: 26.11e3 / 8.0,
            topk_per_key_ns: 0.5,
            dcc_merge_per_entry_ns: 0.25,
            pfu_query_batch: 16,
            max_k: 1024,
            spm: SpmConfig::paper(),
        }
    }
}

/// Workload description for one head's offload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadOffloadSpec {
    /// Keys in the sparse (non-window) region for this head.
    pub context_len: usize,
    /// Key/query dimension.
    pub head_dim: usize,
    /// Queries in the GQA group sharing this head.
    pub queries: usize,
    /// Top-k budget.
    pub k: usize,
    /// Keys that survive SCF (exact when known, expected otherwise).
    pub survivors: usize,
}

/// Phase-by-phase timing of one head offload (one NMA's critical path).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HeadOffloadTiming {
    /// PFU filtering time, ns.
    pub filter_ns: f64,
    /// Bitmap read time, ns.
    pub bitmap_ns: f64,
    /// Address generation time, ns.
    pub addr_gen_ns: f64,
    /// Key fetch + dot-product phase (max of DRAM and compute), ns.
    pub fetch_score_ns: f64,
    /// Top-k ranking time, ns.
    pub topk_ns: f64,
}

impl HeadOffloadTiming {
    /// Total device-side latency.
    pub fn total_ns(&self) -> f64 {
        self.filter_ns + self.bitmap_ns + self.addr_gen_ns + self.fetch_score_ns + self.topk_ns
    }

    /// Element-wise maximum (for parallel slices/heads on different NMAs).
    pub fn max_with(&self, other: &HeadOffloadTiming) -> HeadOffloadTiming {
        // The breakdown of a parallel composition is the breakdown of the
        // slower chain.
        if self.total_ns() >= other.total_ns() {
            *self
        } else {
            *other
        }
    }
}

/// Times a single Context Slice's offload on one NMA.
///
/// `slice_keys` of the head's region live in this slice; `survivors` of them
/// pass SCF. The survivor placement is synthesized uniformly at random
/// (seeded for reproducibility) — survivor *sparsity* is what drives the
/// row-hit behaviour the DRAM simulator measures.
///
/// With `trace = Some((rec, track, start_ns))` the slice's phase spans are
/// also emitted on `track`, anchored at simulated time `start_ns`: the
/// serial `pfu.filter → pfu.bitmap → nma.addr_gen → nma.fetch_score →
/// nma.topk` chain, with the sampled `dram.channel` activity nested inside
/// the fetch/score phase. Recording only reads the timing, so the returned
/// numbers are the same with `None`, a disabled recorder or an enabled one.
///
/// # Errors
///
/// Returns [`FaultError::InvalidSpec`] when `survivors > slice_keys`,
/// `k > max_k`, `head_dim == 0`, or the slice exceeds the hardware slice
/// bound.
pub fn time_slice_offload(
    params: &DrexParams,
    spec: &HeadOffloadSpec,
    slice_keys: usize,
    survivors: usize,
    seed: u64,
    trace: Option<(&mut Recorder, TrackId, f64)>,
) -> Result<HeadOffloadTiming, FaultError> {
    let mut untraced = Recorder::disabled();
    let (rec, track, start_ns) = match trace {
        Some(t) => t,
        None => {
            let track = untraced.track("nma");
            (&mut untraced, track, 0.0)
        }
    };
    if spec.head_dim == 0 {
        return Err(FaultError::InvalidSpec("head_dim must be positive".into()));
    }
    if survivors > slice_keys {
        return Err(FaultError::InvalidSpec("more survivors than keys".into()));
    }
    if spec.k > params.max_k {
        return Err(FaultError::InvalidSpec(format!(
            "k {} beyond hardware limit",
            spec.k
        )));
    }
    if slice_keys > MAX_CONTEXT_SLICE_KEYS {
        return Err(FaultError::InvalidSpec("slice too large".into()));
    }
    if slice_keys == 0 {
        return Ok(HeadOffloadTiming::default());
    }

    let slice = ContextSlice::new(0, slice_keys);
    let d = spec.head_dim;

    // 1. Filter: PFUs across all banks in parallel; each bank processes its
    //    keys in 128-key epochs of d dimensions each. Query batches beyond
    //    the PFU width serialize.
    let epochs_per_bank = slice.keys_per_bank().div_ceil(128).max(1);
    let query_passes = spec.queries.div_ceil(params.pfu_query_batch).max(1);
    let filter_ns = epochs_per_bank as f64 * query_passes as f64 * d as f64 * params.pfu_dim_ns;

    // 2. Bitmap read: one bitmap per bank per epoch, pipelined per channel.
    let bitmaps_per_channel = (slice.banks_used() / 8).max(1) * epochs_per_bank;
    let bitmap_ns =
        params.bitmap_read_ns + (bitmaps_per_channel as f64 - 1.0) * params.dram.burst_ns;

    // 3. Address generation, once per epoch batch — plus one extra
    //    filter/drain alternation per Address-SPM overflow (§7.4: survivor
    //    addresses are staged in the Address SPM before fetching).
    let drain_passes = params.spm.drain_passes(survivors);
    let addr_gen_ns = params.addr_gen_ns * epochs_per_bank.max(drain_passes) as f64;

    // Phase spans: the slice pipeline is serial across phases, so each span
    // starts where the previous ended. Score is computed up front (it only
    // depends on the survivor count) so the fetch/score span can open before
    // the DRAM fetch simulation nests its channel activity inside it.
    let score_flops = (survivors * spec.queries * 2 * d) as f64;
    let score_ns = score_flops / params.nma_flops_per_ns;
    let mut at = start_ns;
    rec.leaf_with(
        track,
        "pfu.filter",
        at,
        at + filter_ns,
        &[
            ("epochs", ArgVal::U(epochs_per_bank as u64)),
            ("queries", ArgVal::U(spec.queries as u64)),
        ],
    );
    at += filter_ns;
    rec.leaf(track, "pfu.bitmap", at, at + bitmap_ns);
    at += bitmap_ns;
    rec.leaf(track, "nma.addr_gen", at, at + addr_gen_ns);
    at += addr_gen_ns;
    let fetch_score_span = rec.open_with(
        track,
        "nma.fetch_score",
        at,
        &[
            ("survivors", ArgVal::U(survivors as u64)),
            ("score_ns", ArgVal::F(score_ns)),
        ],
    );
    let fetch_start = at;

    // 4. Fetch + score. Keys are channel-interleaved: each survivor key is
    //    `2d` bytes spread across 8 channels. Simulate one representative
    //    channel with its share of the accesses.
    let key_bytes = 2 * d;
    let accesses_total = survivors * key_bytes.div_ceil(params.dram.burst_bytes).max(1);
    let per_channel = accesses_total.div_ceil(8);
    // Simulating every access is unnecessary beyond a few thousand: the
    // steady-state rate converges. Simulate a sample and extrapolate the
    // steady-state tail linearly.
    const SIM_CAP: usize = 4096;
    let fetch_ns = if per_channel == 0 {
        0.0
    } else {
        let simulated = per_channel.min(SIM_CAP);
        // Scale survivor positions so the simulated prefix preserves the
        // survivor *density* (which drives row locality).
        let sim_survivors = (survivors as f64 * simulated as f64 / per_channel as f64)
            .round()
            .max(1.0) as usize;
        let sim_keys = ((slice_keys as f64) * simulated as f64 / per_channel as f64)
            .round()
            .max(sim_survivors as f64) as usize;
        let mut rng = SimRng::seed_from(seed);
        let positions = survivor_positions(&mut rng, sim_keys, sim_survivors);
        // Per-channel key slice layout: 64 key-slices per row; keys grouped
        // 1,024 per bank-group.
        let keys_per_row = (params.dram.row_bytes / params.dram.burst_bytes).max(1);
        let mut sim = ChannelSim::new(params.dram.clone(), slice.bank_groups.max(1));
        let mut reqs: Vec<Request> = positions
            .iter()
            .take(simulated)
            .map(|&pos| {
                let bank = (pos / 1024).min(slice.bank_groups.saturating_sub(1));
                let within = pos % 1024;
                Request::read(bank, within / keys_per_row, within % keys_per_row)
            })
            .collect();
        // The NMA holds every survivor address in its Address SPM before
        // fetching (§7.4), so its memory controller issues them interleaved
        // across banks — bank-level parallelism hides row-activate latency.
        // Emit the trace round-robin over banks to model that.
        {
            let nbanks = slice.bank_groups.max(1);
            let mut by_bank: Vec<Vec<Request>> = vec![Vec::new(); nbanks];
            for r in reqs.drain(..) {
                by_bank[r.bank].push(r);
            }
            let mut i = 0;
            while reqs.len() < simulated.min(positions.len()) {
                let mut emitted = false;
                for b in by_bank.iter_mut() {
                    if i < b.len() {
                        reqs.push(b[i]);
                        emitted = true;
                    }
                }
                i += 1;
                if !emitted {
                    break;
                }
            }
        }
        let done = sim.run_traced(&reqs, rec, track, fetch_start);
        let sampled_ns = done.iter().map(|c| c.finish).fold(0.0, f64::max);
        sampled_ns * per_channel as f64 / simulated as f64
    };
    let fetch_score_ns = fetch_ns.max(score_ns);
    rec.close(fetch_score_span, fetch_start + fetch_score_ns);
    at += fetch_score_ns;

    // 5. Top-k insertion, pipelined.
    let topk_ns = survivors as f64 * params.topk_per_key_ns;
    rec.leaf_with(
        track,
        "nma.topk",
        at,
        at + topk_ns,
        &[("k", ArgVal::U(spec.k as u64))],
    );

    Ok(HeadOffloadTiming {
        filter_ns,
        bitmap_ns,
        addr_gen_ns,
        fetch_score_ns,
        topk_ns,
    })
}

/// Samples `sim_survivors` strictly increasing positions in
/// `[0, sim_keys)` via stride-jitter — the synthetic survivor placement
/// whose sparsity drives the row-hit behaviour the DRAM simulator measures.
///
/// Strict monotonicity matters: a raw jittered draw can land on the previous
/// survivor's position (e.g. stride 1.5: `⌊0·1.5+1.4⌋ = ⌊1·1.5+0.1⌋ = 1`),
/// which would fetch the same DRAM row twice while never simulating another
/// survivor. Each draw is therefore floored at `prev + 1` and capped at
/// `sim_keys − (sim_survivors − i)`, which leaves exactly enough headroom for
/// the remaining survivors — the floor can never exceed the cap, so every
/// position is distinct and in bounds.
///
/// Requires `1 <= sim_survivors <= sim_keys` (guaranteed by the sampling
/// setup in [`time_slice_offload`]).
fn survivor_positions(rng: &mut SimRng, sim_keys: usize, sim_survivors: usize) -> Vec<usize> {
    debug_assert!(sim_survivors >= 1 && sim_survivors <= sim_keys);
    let mut positions = Vec::with_capacity(sim_survivors);
    let stride = sim_keys as f64 / sim_survivors as f64;
    let mut floor = 0usize;
    for i in 0..sim_survivors {
        let jitter = rng.uniform() * stride;
        let raw = ((i as f64 * stride + jitter) as usize).min(sim_keys - 1);
        let cap = sim_keys - (sim_survivors - i);
        let pos = raw.max(floor).min(cap);
        positions.push(pos);
        floor = pos + 1;
    }
    positions
}

/// One slice's share of a head offload, as produced by [`slice_layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceWork {
    /// Keys stored in this slice.
    pub keys: usize,
    /// Survivors assigned to this slice (proportional share; the final
    /// slice absorbs the rounding remainder).
    pub survivors: usize,
    /// Seed for this slice's survivor-placement sampling.
    pub seed: u64,
}

/// Splits a head's sparse region into per-slice work items: each Context
/// Slice holds at most [`MAX_CONTEXT_SLICE_KEYS`] keys, survivors are
/// apportioned proportionally to slice size (rounded, clamped to the slice,
/// with the final slice absorbing the remainder), and each slice derives its
/// sampling seed from the head seed and its index.
///
/// This is the single source of truth for the slice recurrence —
/// [`time_head_offload`] and [`DccSim::submit`](crate::DccSim::submit) both
/// lay out their slices here, so the two head paths cannot drift.
pub fn slice_layout(spec: &HeadOffloadSpec, seed: u64) -> Vec<SliceWork> {
    if spec.context_len == 0 {
        return Vec::new();
    }
    let slices = spec.context_len.div_ceil(MAX_CONTEXT_SLICE_KEYS);
    let mut layout = Vec::with_capacity(slices);
    let mut remaining = spec.context_len;
    let mut remaining_survivors = spec.survivors;
    for s in 0..slices {
        let keys = remaining.min(MAX_CONTEXT_SLICE_KEYS);
        // Proportional survivor share.
        let survivors = if s + 1 == slices {
            remaining_survivors
        } else {
            (spec.survivors as f64 * keys as f64 / spec.context_len as f64).round() as usize
        }
        .min(remaining_survivors)
        .min(keys);
        layout.push(SliceWork {
            keys,
            survivors,
            seed: seed ^ (s as u64) << 32,
        });
        remaining -= keys;
        remaining_survivors -= survivors;
    }
    layout
}

/// Times a full head offload whose region may span several Context Slices.
///
/// Slices live in different packages and execute in parallel on their NMAs
/// (§7.1: "multiple or all NMAs can work in parallel on a single attention
/// request"); the head's latency is the slowest slice plus a small DCC merge
/// of the partial top-k lists.
///
/// # Errors
///
/// Propagates the first slice's [`FaultError`] in slice order
/// (deterministic regardless of evaluation order).
pub fn time_head_offload(
    params: &DrexParams,
    spec: &HeadOffloadSpec,
    seed: u64,
) -> Result<HeadOffloadTiming, FaultError> {
    // Lay out each slice's work first ([`slice_layout`] is a cheap
    // sequential recurrence) — then time the slices on the parallel map,
    // mirroring the NMAs that run them concurrently. Folding `max_with` in
    // slice order afterwards reproduces the serial result bit-for-bit (ties
    // keep the earlier slice either way).
    let layout = slice_layout(spec, seed);
    let timings = longsight_exec::deterministic_map(&layout, |_, w| {
        time_slice_offload(params, spec, w.keys, w.survivors, w.seed, None)
    });
    let mut worst = HeadOffloadTiming::default();
    for t in timings {
        worst = worst.max_with(&t?);
    }
    // DCC merge of partial top-k lists: k entries per extra slice, pipelined.
    if layout.len() > 1 {
        worst.topk_ns += (layout.len() - 1) as f64
            * spec.k.min(params.max_k) as f64
            * params.dcc_merge_per_entry_ns;
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(context: usize, survivors: usize) -> HeadOffloadSpec {
        HeadOffloadSpec {
            context_len: context,
            head_dim: 128,
            queries: 4,
            k: 1024,
            survivors,
        }
    }

    #[test]
    fn filter_time_matches_rtl_constant() {
        let p = DrexParams::paper();
        // One epoch, ≤16 queries: d × 1.25 ns.
        let t = time_slice_offload(&p, &spec(1024, 0), 1024, 0, 1, None).unwrap();
        assert!((t.filter_ns - 128.0 * 1.25).abs() < 1e-9);
        assert_eq!(t.fetch_score_ns, 0.0);
    }

    #[test]
    fn more_survivors_cost_more_fetch_time() {
        let p = DrexParams::paper();
        let few = time_slice_offload(&p, &spec(65_536, 1_000), 65_536, 1_000, 2, None).unwrap();
        let many = time_slice_offload(&p, &spec(65_536, 20_000), 65_536, 20_000, 2, None).unwrap();
        assert!(many.fetch_score_ns > few.fetch_score_ns);
        assert!(many.total_ns() > few.total_ns());
    }

    #[test]
    fn dense_fetch_is_bandwidth_bound() {
        let p = DrexParams::paper();
        // All 65,536 keys survive: 16 MiB of keys over 8 × 17 GB/s.
        let keys = 65_536;
        let t = time_slice_offload(&p, &spec(keys, keys), keys, keys, 3, None).unwrap();
        let bytes = keys as f64 * 256.0;
        let ideal_ns = bytes / (8.0 * p.dram.channel_bandwidth_gbps());
        assert!(
            t.fetch_score_ns >= ideal_ns,
            "cannot beat peak bandwidth: {} < {ideal_ns}",
            t.fetch_score_ns
        );
        assert!(
            t.fetch_score_ns < ideal_ns * 2.0,
            "sequential fetch should be near streaming bandwidth: {} vs {ideal_ns}",
            t.fetch_score_ns
        );
    }

    #[test]
    fn multi_slice_heads_run_parallel_not_serial() {
        let p = DrexParams::paper();
        // 4 slices worth of context with uniform survivors.
        let big = spec(4 * MAX_CONTEXT_SLICE_KEYS, 40_000);
        let t_big = time_head_offload(&p, &big, 4).unwrap();
        let small = spec(MAX_CONTEXT_SLICE_KEYS, 10_000);
        let t_small = time_head_offload(&p, &small, 4).unwrap();
        // Parallel slices: the 4× context costs roughly one slice's time
        // (plus merge), NOT 4×.
        assert!(
            t_big.total_ns() < 2.0 * t_small.total_ns(),
            "multi-slice offload should scale sub-linearly: {} vs {}",
            t_big.total_ns(),
            t_small.total_ns()
        );
    }

    #[test]
    fn sub_linear_scaling_with_context_at_fixed_filter_rate() {
        // Paper §9.1: "DReX offload time scales sub-linearly with context
        // length" (given the 20× filter ratio, survivors scale linearly but
        // the per-epoch overheads amortize).
        let p = DrexParams::paper();
        let t1 = time_head_offload(&p, &spec(32_768, 32_768 / 20), 7).unwrap();
        let t4 = time_head_offload(&p, &spec(4 * 32_768, 4 * 32_768 / 20), 7).unwrap();
        assert!(t4.total_ns() < 4.0 * t1.total_ns());
        assert!(t4.total_ns() > t1.total_ns());
    }

    #[test]
    fn query_batches_beyond_pfu_width_serialize() {
        let p = DrexParams::paper();
        let mut s = spec(1024, 0);
        s.queries = 32; // two PFU passes
        let t = time_slice_offload(&p, &s, 1024, 0, 8, None).unwrap();
        assert!((t.filter_ns - 2.0 * 128.0 * 1.25).abs() < 1e-9);
    }

    #[test]
    fn inconsistent_specs_are_typed_errors() {
        let p = DrexParams::paper();
        assert!(matches!(
            time_slice_offload(&p, &spec(100, 200), 100, 200, 9, None),
            Err(FaultError::InvalidSpec(m)) if m == "more survivors than keys"
        ));
        let mut bad_k = spec(1024, 100);
        bad_k.k = p.max_k + 1;
        assert!(matches!(
            time_slice_offload(&p, &bad_k, 1024, 100, 9, None),
            Err(FaultError::InvalidSpec(_))
        ));
        assert!(time_head_offload(&p, &bad_k, 9).is_err());
    }

    #[test]
    fn traced_timing_matches_untraced_and_emits_the_phase_chain() {
        let p = DrexParams::paper();
        let s = spec(65_536, 3_000);
        let plain = time_slice_offload(&p, &s, 65_536, 3_000, 4, None).unwrap();
        let mut off = Recorder::disabled();
        let track = off.track("nma");
        let quiet = time_slice_offload(&p, &s, 65_536, 3_000, 4, Some((&mut off, track, 7.0)));
        assert_eq!(quiet.unwrap(), plain);
        assert!(off.spans().is_empty());

        let mut rec = Recorder::enabled();
        let track = rec.track("nma");
        let traced = time_slice_offload(&p, &s, 65_536, 3_000, 4, Some((&mut rec, track, 7.0)));
        assert_eq!(traced.unwrap(), plain);
        let chain: Vec<&str> = rec
            .spans()
            .iter()
            .filter(|sp| sp.track == track && sp.parent.is_none())
            .map(|sp| sp.name.as_str())
            .collect();
        assert_eq!(
            chain,
            [
                "pfu.filter",
                "pfu.bitmap",
                "nma.addr_gen",
                "nma.fetch_score",
                "nma.topk"
            ]
        );
        let last = rec.spans().iter().rfind(|sp| sp.track == track).unwrap();
        assert!((last.end_ns - (7.0 + plain.total_ns())).abs() < 1e-6);
        rec.validate_well_formed().unwrap();
    }

    #[test]
    fn empty_context_is_free() {
        let p = DrexParams::paper();
        let t = time_head_offload(&p, &spec(0, 0), 10).unwrap();
        assert_eq!(t.total_ns(), 0.0);
    }

    #[test]
    fn survivor_positions_are_strictly_increasing_and_in_bounds() {
        // Includes the stride-1.5 shape from the original duplicate bug and
        // the degenerate all-survive / one-survivor extremes.
        for (keys, survivors) in [
            (3, 2),
            (6, 4),
            (4096, 4096),
            (4096, 2731), // stride ≈ 1.5
            (4096, 1),
            (65_536, 3_000),
            (100, 99),
        ] {
            for seed in 0..20u64 {
                let mut rng = SimRng::seed_from(seed);
                let pos = survivor_positions(&mut rng, keys, survivors);
                assert_eq!(pos.len(), survivors);
                assert!(*pos.last().unwrap() < keys, "{keys}/{survivors}/{seed}");
                for w in pos.windows(2) {
                    assert!(
                        w[1] > w[0],
                        "duplicate or decreasing position {w:?} at {keys}/{survivors}/{seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_survivors_is_the_identity_placement() {
        let mut rng = SimRng::seed_from(1);
        let pos = survivor_positions(&mut rng, 512, 512);
        assert_eq!(pos, (0..512).collect::<Vec<_>>());
    }

    #[test]
    fn slice_layout_matches_reference_recurrence() {
        // Pins the shared helper to the recurrence both head paths relied on
        // before it was extracted: proportional survivor shares, clamped to
        // the slice, final slice absorbing the remainder, per-slice seeds.
        for (context, survivors) in [
            (1, 0),
            (MAX_CONTEXT_SLICE_KEYS, 100),
            (MAX_CONTEXT_SLICE_KEYS + 1, 7),
            (3 * MAX_CONTEXT_SLICE_KEYS + 17, 12_345),
            (4 * MAX_CONTEXT_SLICE_KEYS, 4 * MAX_CONTEXT_SLICE_KEYS),
        ] {
            let s = spec(context, survivors);
            let layout = slice_layout(&s, 0xDEAD);
            let slices = context.div_ceil(MAX_CONTEXT_SLICE_KEYS);
            assert_eq!(layout.len(), slices);
            let mut remaining = context;
            let mut remaining_survivors = survivors;
            for (i, w) in layout.iter().enumerate() {
                let keys = remaining.min(MAX_CONTEXT_SLICE_KEYS);
                let share = if i + 1 == slices {
                    remaining_survivors
                } else {
                    (survivors as f64 * keys as f64 / context as f64).round() as usize
                }
                .min(remaining_survivors)
                .min(keys);
                assert_eq!((w.keys, w.survivors), (keys, share), "slice {i}");
                assert_eq!(w.seed, 0xDEAD ^ (i as u64) << 32, "slice {i}");
                remaining -= keys;
                remaining_survivors -= share;
            }
            assert_eq!(remaining, 0);
            assert_eq!(remaining_survivors, 0);
            assert_eq!(layout.iter().map(|w| w.keys).sum::<usize>(), context);
            assert_eq!(layout.iter().map(|w| w.survivors).sum::<usize>(), survivors);
        }
    }

    #[test]
    fn dcc_merge_cost_scales_with_the_param() {
        let mut p = DrexParams::paper();
        let s = spec(3 * MAX_CONTEXT_SLICE_KEYS, 30_000);
        let base = time_head_offload(&p, &s, 4).unwrap();
        p.dcc_merge_per_entry_ns = 0.5;
        let doubled = time_head_offload(&p, &s, 4).unwrap();
        let extra = 2.0 * s.k as f64 * 0.25; // (slices−1) × k × Δcost
        assert!((doubled.topk_ns - base.topk_ns - extra).abs() < 1e-9);
    }
}
