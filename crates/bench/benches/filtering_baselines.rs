//! Algorithmic baseline comparison (paper §3.1, §5.1): per-token SCF vs.
//! blockwise selection (NSA/DynaX-style) vs. Reformer-style LSH, on
//! LLaMA-like key traces — cost (keys fetched) and recall of the true top-k.

use longsight_bench::fig3::{trace_for, train_trace_itq};
use longsight_bench::print_table;
use longsight_core::baseline_filters::LshFilter;
use longsight_core::trace_eval::PreparedTrace;
use longsight_core::{filter_block_packed, HybridConfig, PFU_BLOCK_KEYS};
use longsight_tensor::SimRng;

fn main() {
    let d = 128;
    let ctx = 16_384;
    let trace = trace_for(d, ctx, 0xBA5E);
    let rotation = train_trace_itq(&trace, 1024, 0xBA5E);
    // No window and no sinks: the whole cache is the sparse region, so the
    // prepared exact top-k is the true top-k over every key.
    let k = 128;
    let prepared = PreparedTrace::new(
        &trace,
        &rotation,
        &HybridConfig {
            window: 0,
            sinks: 0,
            top_k: k,
        },
    );
    let key_signs = prepared.key_signs();
    let n = key_signs.len();

    let mut rng = SimRng::seed_from(0xBA5F);
    let lsh = LshFilter::new(d, 32, 8, &mut rng);
    let key_sigs: Vec<Vec<u64>> = trace.keys.iter().map(|k| lsh.signatures(k)).collect();

    // For each method: candidate count + recall of true top-128, averaged
    // over the trace's query probes.
    let mut rows = Vec::new();
    let mut totals = vec![(0usize, 0usize); 4]; // (candidates, hits)
    let mut truth_total = 0usize;
    for (pi, probe) in trace.queries.iter().enumerate() {
        let truth = prepared.exact_top_k(pi);
        truth_total += truth.len();

        // Per-token SCF at a mid threshold; blockwise at the same threshold
        // keeps a whole 128-key block when any of its keys survives.
        let th = 72;
        let mut per_token = Vec::new();
        let mut blockwise = Vec::new();
        let mut block = 0;
        while block < n {
            let end = (block + PFU_BLOCK_KEYS).min(n);
            let mut bitmap =
                filter_block_packed(prepared.query_signs(pi), key_signs, block..end, th);
            if bitmap != 0 {
                blockwise.extend(block..end);
            }
            while bitmap != 0 {
                per_token.push(block + bitmap.trailing_zeros() as usize);
                bitmap &= bitmap - 1;
            }
            block = end;
        }
        let lsh_cands = lsh.candidates(&lsh.signatures(&probe.q), &key_sigs);
        let dense: Vec<usize> = (0..n).collect();

        for (slot, cands) in [&per_token, &blockwise, &lsh_cands, &dense]
            .iter()
            .enumerate()
        {
            totals[slot].0 += cands.len();
            totals[slot].1 += truth.iter().filter(|i| cands.contains(i)).count();
        }
    }
    let n_probes = trace.queries.len();
    for (name, (cands, hits)) in [
        "per-token SCF+ITQ (th 72)",
        "blockwise SCF+ITQ (128-key blocks, th 72)",
        "LSH (32 tables x 8 bits)",
        "dense (fetch everything)",
    ]
    .iter()
    .zip(&totals)
    {
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", *cands as f64 / n_probes as f64),
            format!("{:.1}x", ctx as f64 * n_probes as f64 / *cands as f64),
            format!("{:.3}", *hits as f64 / truth_total as f64),
        ]);
    }
    print_table(
        "Filtering baselines at 16K context (Llama-3-8B key geometry)",
        &[
            "Method",
            "Keys fetched/query",
            "Filter ratio",
            "Top-128 recall",
        ],
        &rows,
    );
    println!("\npaper shape (3.1/5.1): per-token filtering fetches several times fewer");
    println!("keys than block-granular selection at the same threshold; LSH needs");
    println!("multiple hash rounds/tables and still trails a tuned sign filter.");
}
