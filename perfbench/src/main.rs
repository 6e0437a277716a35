//! The LongSight simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `fleet_poisson`, `fleet_sessions`, `decode_8b_128k`,
//! `quality_sweep` (see `perfbench/NOTES.md` for why each exists).
//! `--trace 0` is the end-to-end run, with tracing off; `--trace 1` is the
//! traced run that splits host time by layer and reports the per-layer
//! counters. Every metric line is labelled `host`, `sim` or `quality`; the
//! last line of standard output is one JSON result object. A failed
//! correctness check exits with status 1.

mod quality;
mod report;
mod serving;
mod spans;
mod timed;

use report::{peak_rss_mb, Kind, Metric, Outcome};
use serving::ServingKind;
use std::cell::Cell;
use std::process::ExitCode;
use std::time::Instant;

/// Worker threads for the library's deterministic parallel maps, capped at
/// the host's core count.
const THREADS: usize = 2;

/// The end-to-end metrics of the result line, with units.
const END_TO_END: [(&str, &str); 4] = [
    ("host_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("served_share", "ratio"),
];

/// The per-layer metrics of the traced run's result line, with units. A
/// layer a workload never enters reports 0.
const PER_LAYER: [(&str, &str); 55] = [
    ("system.loop.self_s", "s"),
    ("system.host_ms_per_1k_arrivals", "ms"),
    ("step_cost.calls", "count"),
    ("step_cost.s", "s"),
    ("step_cost.unique_shapes", "count"),
    ("step_cost.unique_share", "ratio"),
    ("drex.layer_s", "s"),
    ("sched.mean_batch", "users"),
    ("sched.preemptions", "count"),
    ("sched.resumes", "count"),
    ("sched.prefill_work_s", "s"),
    ("pages.peak_hbm_share", "ratio"),
    ("pages.prefix_hit_share", "ratio"),
    ("pages.prefix_reclaims", "count"),
    ("router.owner_share", "ratio"),
    ("router.pulls", "count"),
    ("router.cold_turns", "count"),
    ("router.imbalance", "x"),
    ("attr.window.mean_ms", "ms"),
    ("attr.window.p99_ms", "ms"),
    ("attr.weights.mean_ms", "ms"),
    ("attr.weights.p99_ms", "ms"),
    ("attr.merge.mean_ms", "ms"),
    ("attr.merge.p99_ms", "ms"),
    ("attr.filter.mean_ms", "ms"),
    ("attr.filter.p99_ms", "ms"),
    ("attr.score.mean_ms", "ms"),
    ("attr.score.p99_ms", "ms"),
    ("attr.queue.mean_ms", "ms"),
    ("attr.queue.p99_ms", "ms"),
    ("attr.link.mean_ms", "ms"),
    ("attr.link.p99_ms", "ms"),
    ("attr.retry.mean_ms", "ms"),
    ("attr.retry.p99_ms", "ms"),
    ("attr.spec_miss.mean_ms", "ms"),
    ("attr.spec_miss.p99_ms", "ms"),
    ("attr.overlap_hidden.mean_ms", "ms"),
    ("attr.overlap_hidden.p99_ms", "ms"),
    ("faults.events", "count"),
    ("faults.retried_tokens", "count"),
    ("faults.failed_requests", "count"),
    ("spec.hit_share", "ratio"),
    ("obs.trace_overhead", "x"),
    ("obs.export_s", "s"),
    ("obs.trace_mb", "MB"),
    ("model.tracegen_s", "s"),
    ("core.itq_train_s", "s"),
    ("core.trace_eval.calls", "count"),
    ("core.trace_eval.p50_call_ms", "ms"),
    ("core.trace_eval.s", "s"),
    ("core.scf.ns_per_key", "ns"),
    ("core.survivor_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.self_s", "s"),
    ("trace.write_s", "s"),
];

/// Minimum repetitions of the timed phase, however long each takes.
const MIN_REPS: usize = 3;

/// The timed phase: repeats one workload run until `seconds` have passed.
pub struct Phase {
    seconds: f64,
    /// Peak RSS once set-up and the first repetition are done, MB. Later
    /// repetitions repeat the same work; the allocator's fragmentation
    /// over a varying number of them would only add noise.
    rss_after_first: Cell<Option<f64>>,
}

impl Phase {
    /// Calls `f` (which returns the host seconds it timed) at least
    /// `MIN_REPS` times and until the phase's time is spent.
    pub fn repeat(&self, mut f: impl FnMut() -> f64) -> Vec<f64> {
        let t0 = Instant::now();
        let mut times = Vec::new();
        while times.len() < MIN_REPS || t0.elapsed().as_secs_f64() < self.seconds {
            times.push(f());
            if times.len() == 1 {
                self.rss_after_first.set(peak_rss_mb());
            }
        }
        times
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Serving(ServingKind),
    Quality,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "fleet_poisson" => Workload::Serving(ServingKind::FleetPoisson),
            "fleet_sessions" => Workload::Serving(ServingKind::FleetSessions),
            "decode_8b_128k" => Workload::Serving(ServingKind::Decode),
            "quality_sweep" => Workload::Quality,
            other => {
                return Err(format!(
                    "unknown workload '{other}' (fleet_poisson, fleet_sessions, decode_8b_128k, quality_sweep)"
                ))
            }
        })
    }
}

struct Args {
    workload_name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad --seed '{value}'"))?,
                    )
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds '{value}'"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                    })
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        let workload_name = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload: Workload::parse(&workload_name)?,
            workload_name,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn end_to_end(args: &Args) -> Outcome {
    let phase = Phase {
        seconds: args.seconds,
        rss_after_first: Cell::new(None),
    };
    let mut out = match args.workload {
        Workload::Serving(kind) => serving::end_to_end(kind, args.seed, &phase),
        Workload::Quality => quality::end_to_end(args.seed, &phase),
    };
    let kind = match args.workload {
        Workload::Serving(_) => Kind::Sim,
        Workload::Quality => Kind::Quality,
    };
    let served = 1.0 - out.missed as f64 / out.attempted.max(1) as f64;
    out.push(
        Metric::new("served_share", "ratio", kind, served)
            .note("1 - missed_share, the result line's form of it"),
    );
    match phase.rss_after_first.get() {
        Some(mb) => out.push(
            Metric::new("peak_rss_mb", "MB", Kind::Host, mb)
                .note("VmHWM after set-up and the first timed repetition"),
        ),
        None => out.check(false, "peak RSS unreadable from /proc/self/status"),
    }
    out
}

fn traced(args: &Args) -> Outcome {
    let trace = spans::Trace::shared();
    let mut out = match args.workload {
        Workload::Serving(kind) => serving::traced(kind, args.seed, &trace),
        Workload::Quality => quality::traced(args.seed, &trace),
    };
    let t = trace.borrow();
    let total_self: f64 = t.self_times().values().sum();
    let t0 = Instant::now();
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        args.workload_name, args.seed
    ));
    let written = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, t.to_json()));
    let write_s = t0.elapsed().as_secs_f64();
    match written {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out.check(false, format!("writing {}: {e}", path.display())),
    }
    out.push(Metric::new(
        "trace.spans",
        "count",
        Kind::Host,
        t.spans().len() as f64,
    ));
    out.push(
        Metric::new("trace.self_s", "s", Kind::Host, total_self).note("sum of span self times"),
    );
    out.push(Metric::new("trace.write_s", "s", Kind::Host, write_s));
    let idle: Vec<&str> = PER_LAYER
        .iter()
        .filter(|(n, _)| out.get(n).is_none())
        .map(|(n, _)| *n)
        .collect();
    if !idle.is_empty() {
        out.notes.push(format!(
            "layers idle on this workload (reported as 0): {}",
            idle.join(" ")
        ));
    }
    for (name, unit) in PER_LAYER {
        if out.get(name).is_none() {
            out.push(Metric::new(name, unit, Kind::Host, 0.0).note("idle"));
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = THREADS.min(cores);
    longsight_exec::set_thread_count(threads);
    println!(
        "perfbench workload {} | seed {} | seconds {} | trace {} | host cores {cores} | threads {threads}",
        args.workload_name, args.seed, args.seconds, u8::from(args.trace)
    );
    println!(
        "note: sim metrics come from the repository's analytical and cycle-approximate model of the GPU + DReX + CXL system; the model is unvalidated against hardware, so no error figure is given"
    );
    let mut out = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in names {
        let finite = out.get(name).is_some_and(|m| m.value.is_finite());
        out.check(
            finite,
            format!("result metric {name} is missing or not finite"),
        );
    }
    for n in &out.notes {
        println!("{n}");
    }
    for m in &out.metrics {
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "n/a".to_string()
        };
        println!(
            "metric {:<34} {:>22} {:<6} [{}] {}",
            m.name,
            value,
            m.unit,
            m.kind.label(),
            m.note
        );
    }
    println!("digest {:016x}", out.digest);
    println!(
        "operations attempted {} failed {}",
        out.attempted,
        if out.failures.is_empty() {
            out.missed
        } else {
            out.attempted
        }
    );
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{}", out.result_json(names));
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
