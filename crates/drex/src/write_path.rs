//! KV ingest path timing (paper §6).
//!
//! The GPU accumulates newly generated KV pairs in its HBM staging window
//! and flushes them to DReX in groups of 128: one CXL bulk write carrying
//! the Key Sign Object, Key Object, and Value Object, which the device
//! commits to LPDDR as streaming row writes. Flushing happens off the
//! decode critical path; this model verifies the bandwidth headroom that
//! claim needs.

use crate::layout::ObjectFootprint;
use longsight_cxl::CxlLink;
use longsight_dram::{ChannelSim, DramTiming, Request};

/// Timing of one KV block flush.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvWriteTiming {
    /// CXL transfer time for the block's objects, ns.
    pub cxl_ns: f64,
    /// LPDDR commit time (channel-interleaved streaming writes), ns.
    pub dram_ns: f64,
}

impl KvWriteTiming {
    /// End-to-end flush latency (transfer then commit; not pipelined within
    /// a single block).
    pub fn total_ns(&self) -> f64 {
        self.cxl_ns + self.dram_ns
    }
}

/// Times the flush of one `block_keys`-KV group for a single head.
///
/// Keys/values are interleaved across the package's 8 channels exactly like
/// reads (§7.3.2), so the commit simulates one representative channel with
/// `1/8` of the write bursts.
pub fn time_kv_block_write(
    dram: &DramTiming,
    link: &CxlLink,
    block_keys: usize,
    head_dim: usize,
) -> KvWriteTiming {
    let bytes = ObjectFootprint::for_keys(block_keys, head_dim).total();
    let cxl_ns = link.transfer_ns(bytes, 0);

    let bursts_total = bytes.div_ceil(dram.burst_bytes);
    let per_channel = bursts_total.div_ceil(8);
    let cols = dram.cols_per_row();
    let reqs: Vec<Request> = (0..per_channel)
        .map(|i| Request {
            bank: (i / cols) % 4, // blocks stream into a few open banks
            row: i / (cols * 4),
            col: i % cols,
            is_write: true,
            arrival: 0.0,
        })
        .collect();
    let mut sim = ChannelSim::new(dram.clone(), 8);
    let dram_ns = sim.run(&reqs).iter().map(|c| c.finish).fold(0.0, f64::max);

    KvWriteTiming { cxl_ns, dram_ns }
}

/// Sustained KV ingest bandwidth in tokens/second for one head when flushing
/// `block_keys`-sized groups back to back.
pub fn sustained_ingest_tokens_per_sec(
    dram: &DramTiming,
    link: &CxlLink,
    block_keys: usize,
    head_dim: usize,
) -> f64 {
    let t = time_kv_block_write(dram, link, block_keys, head_dim);
    // CXL transfer of block N+1 overlaps the DRAM commit of block N.
    let per_block = t.cxl_ns.max(t.dram_ns);
    block_keys as f64 * 1e9 / per_block
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_write_costs_are_ordered() {
        let dram = DramTiming::lpddr5x_8533();
        let link = CxlLink::pcie5_x16();
        let small = time_kv_block_write(&dram, &link, 128, 128);
        let big = time_kv_block_write(&dram, &link, 1024, 128);
        assert!(big.total_ns() > small.total_ns());
        assert!(small.cxl_ns > 0.0 && small.dram_ns > 0.0);
    }

    #[test]
    fn ingest_keeps_up_with_generation() {
        // §6's premise: per generated token each head adds one KV pair; at
        // hundreds of tokens/s per user the flush path must be orders of
        // magnitude faster than generation.
        let dram = DramTiming::lpddr5x_8533();
        let link = CxlLink::pcie5_x16();
        let tps = sustained_ingest_tokens_per_sec(&dram, &link, 128, 128);
        assert!(
            tps > 1e6,
            "per-head ingest must exceed a million tokens/s, got {tps:.0}"
        );
    }

    #[test]
    fn bulk_flushes_beat_per_token_flushes() {
        // §6 benefit 3: accumulating a group of KVs before transfer reduces
        // communication overhead vs one KV per generated token.
        let dram = DramTiming::lpddr5x_8533();
        let link = CxlLink::pcie5_x16();
        let per_token: f64 = (0..128)
            .map(|_| time_kv_block_write(&dram, &link, 1, 128).total_ns())
            .sum();
        let bulk = time_kv_block_write(&dram, &link, 128, 128).total_ns();
        assert!(
            per_token > 3.0 * bulk,
            "bulk flush should amortize per-transfer latency: {per_token} vs {bulk}"
        );
    }
}
