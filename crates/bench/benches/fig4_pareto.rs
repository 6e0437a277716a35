//! Regenerates paper Fig 4: accuracy vs. KV-cache filter ratio Pareto
//! frontiers at 32K context for LongSight's hybrid ITQ-enhanced algorithm.
//!
//! Accuracy axis: `1 − output_rel_err` relative to dense attention (the
//! inverse-perplexity substitution). Three named example configurations are
//! reported alongside the all-configs frontier, mirroring the figure.

use longsight_bench::fig3::{trace_for, train_trace_itq};
use longsight_bench::print_table;
use longsight_core::trace_eval::PreparedTrace;
use longsight_core::HybridConfig;

#[derive(Clone, Copy, Debug)]
struct Point {
    window: usize,
    k: usize,
    threshold: u32,
    ratio: f64,
    accuracy: f64,
}

fn main() {
    let head_dim = 128;
    let ctx = 32_768;
    let trace = trace_for(head_dim, ctx, 0xF164);
    let rotation = train_trace_itq(&trace, 1024, 0xF164);

    let windows = [256usize, 1024, 4096];
    let ks = [128usize, 256, 512, 1024];
    let mut points: Vec<Point> = Vec::new();
    for &window in &windows {
        for &k in &ks {
            let cfg = HybridConfig {
                window,
                sinks: 16,
                top_k: k,
            };
            let prepared = PreparedTrace::new(&trace, &rotation, &cfg);
            for th in (0..=head_dim as u32).step_by(8) {
                let q = prepared.evaluate(th);
                points.push(Point {
                    window,
                    k,
                    threshold: th,
                    ratio: q.stats.filter_ratio_nonwindow(),
                    accuracy: 1.0 - q.output_rel_err,
                });
                if q.output_rel_err > 0.5 {
                    break; // deep in the useless regime
                }
            }
        }
    }

    // Pareto frontier: maximal accuracy for any given (or higher) ratio.
    let mut frontier: Vec<&Point> = points
        .iter()
        .filter(|p| {
            !points
                .iter()
                .any(|q| q.ratio > p.ratio && q.accuracy > p.accuracy)
        })
        .collect();
    frontier.sort_by(|a, b| a.ratio.total_cmp(&b.ratio));

    let rows: Vec<Vec<String>> = frontier
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}x", p.ratio),
                format!("{:.4}", p.accuracy),
                p.window.to_string(),
                p.k.to_string(),
                p.threshold.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fig 4: accuracy vs filter-ratio Pareto frontier at 32K (all configs)",
        &[
            "Filter ratio",
            "Accuracy (rel. dense)",
            "W",
            "k",
            "threshold",
        ],
        &rows,
    );

    // The figure's three example configurations.
    let mut examples = Vec::new();
    for (w, k) in [(256usize, 128usize), (1024, 1024), (4096, 1024)] {
        let best = points
            .iter()
            .filter(|p| p.window == w && p.k == k && p.accuracy >= 0.95)
            .max_by(|a, b| a.ratio.total_cmp(&b.ratio));
        if let Some(p) = best {
            examples.push(vec![
                format!("W={w}, k={k}"),
                format!("{:.1}x", p.ratio),
                format!("{:.4}", p.accuracy),
            ]);
        }
    }
    print_table(
        "Fig 4: example configurations (accuracy >= 0.95)",
        &["Config", "Best filter ratio", "Accuracy"],
        &examples,
    );
    println!("\npaper shape: large windows (>1024) only pay at the highest accuracy");
    println!("targets; k << 1024 only helps at the lowest accuracy targets; W=k=1024");
    println!("covers a wide range of targets with effective filtering.");
}
