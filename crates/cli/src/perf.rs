//! `longsight dashboard` and `longsight perf-diff` — offline consumers of
//! the exported observability artifacts.
//!
//! Both commands operate purely on files written by earlier runs
//! (`--timeseries-out`, `--metrics-out`, the checked-in golden tables), so
//! they are deterministic by construction: same inputs, same bytes out.
//! `perf-diff` is also the CI trajectory gate — it re-reads the golden
//! result tables and fails when a pinned interactive tail regresses.

use crate::args::Args;
use longsight_obs::json::{self, Value};
use longsight_obs::timeseries::Export;

/// Eight-level block characters for the text sparklines.
const SPARK: [char; 8] = [
    '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}', '\u{2588}',
];

/// Rendered for a window with no sample (a gauge before its first write,
/// an empty quantile window).
const SPARK_GAP: char = '\u{00b7}';

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

fn load_export(path: &str) -> Result<Export, String> {
    Export::parse(&read_file(path)?).map_err(|e| format!("{path}: {e}"))
}

/// Downsamples one series to `width` buckets and renders it as a
/// sparkline. Each bucket shows the max of its present samples scaled
/// against the series' own min..max; buckets with no samples render as
/// [`SPARK_GAP`].
fn sparkline(values: &[Option<f64>], width: usize) -> String {
    let n = values.len();
    let width = width.min(n.max(1));
    let present: Vec<f64> = values.iter().filter_map(|v| *v).collect();
    let (lo, hi) = present
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let mut out = String::with_capacity(width * 3);
    for b in 0..width {
        let start = b * n / width;
        let end = ((b + 1) * n / width).max(start + 1).min(n);
        let bucket = values[start..end]
            .iter()
            .filter_map(|v| *v)
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            });
        out.push(match bucket {
            None => SPARK_GAP,
            Some(v) => {
                let frac = if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
                let idx = (frac * 7.0).round().clamp(0.0, 7.0) as usize;
                SPARK[idx]
            }
        });
    }
    out
}

/// Splits exported column names into per-replica panels (`r<i>.` prefix)
/// plus a shared panel for everything else, preserving export order
/// inside each panel.
fn panels(export: &Export) -> Vec<(String, Vec<usize>)> {
    let mut out: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, (name, _)) in export.columns.iter().enumerate() {
        let panel = match replica_of(name) {
            Some(r) => format!("replica {r}"),
            None => "fleet".to_string(),
        };
        match out.iter_mut().find(|(p, _)| *p == panel) {
            Some((_, cols)) => cols.push(i),
            None => out.push((panel, vec![i])),
        }
    }
    out
}

/// `r<digits>.` prefix → replica index.
fn replica_of(name: &str) -> Option<usize> {
    let rest = name.strip_prefix('r')?;
    let dot = rest.find('.')?;
    rest[..dot].parse().ok()
}

/// `longsight dashboard` — text-sparkline panels from a timeseries export.
pub fn dashboard(a: &Args) -> Result<(), String> {
    a.ensure_known(&["file", "width"])?;
    let Some(path) = a.get("file") else {
        return Err("dashboard needs --file FILE (a --timeseries-out export)".into());
    };
    let width: usize = a.get_or("width", 60)?;
    if width < 8 {
        return Err(format!("--width must be >= 8, got {width}"));
    }
    let export = load_export(path)?;
    let windows = export.windows();
    if windows == 0 {
        return Err(format!("{path}: export has no sample windows"));
    }
    let name_w = export
        .columns
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(0);
    println!(
        "== {path} — {} series x {windows} windows, {:.0} ms/window ==",
        export.columns.len(),
        export.window_ns / 1e6
    );
    for (panel, cols) in panels(&export) {
        println!("-- {panel} --");
        for c in cols {
            let (name, values) = &export.columns[c];
            let present: Vec<f64> = values.iter().filter_map(|v| *v).collect();
            let stats = if present.is_empty() {
                "no samples".to_string()
            } else {
                let lo = present.iter().fold(f64::INFINITY, |a, &v| a.min(v));
                let hi = present.iter().fold(f64::NEG_INFINITY, |a, &v| a.max(v));
                let last = present[present.len() - 1];
                format!("min {lo:.2} max {hi:.2} last {last:.2}")
            };
            println!(" {name:<name_w$} {} {stats}", sparkline(values, width));
        }
    }
    Ok(())
}

/// One comparable scalar extracted from an export: metrics entries become
/// `counter:`/`gauge:`/`hist:<name>.mean`, timeseries columns become
/// `<name>.mean` over their present windows.
type Components = Vec<(String, f64)>;

/// Components whose growth counts as a regression: simulated durations
/// and latency quantiles. Everything else (counts, throughput, occupancy)
/// is reported when it moves but does not fail the diff.
fn higher_is_worse(name: &str) -> bool {
    name.ends_with("_ms")
        || name.ends_with("_us")
        || name.ends_with("_ns")
        || name.ends_with("_s")
        || name.ends_with(".mean")
        || name.contains("lat.")
        || name.contains(".p50")
        || name.contains(".p99")
}

fn timeseries_components(export: &Export) -> Components {
    export
        .columns
        .iter()
        .map(|(name, values)| {
            let present: Vec<f64> = values.iter().filter_map(|v| *v).collect();
            let mean = if present.is_empty() {
                0.0
            } else {
                present.iter().sum::<f64>() / present.len() as f64
            };
            (format!("{name}.mean"), mean)
        })
        .collect()
}

fn metrics_components(v: &Value) -> Result<Components, String> {
    let mut out = Vec::new();
    let section = |key: &str| -> Result<Vec<(String, Value)>, String> {
        match v.get(key) {
            Some(Value::Obj(entries)) => Ok(entries.clone()),
            _ => Err(format!("metrics JSON missing object '{key}'")),
        }
    };
    for (name, val) in section("counters")? {
        let n = val
            .as_f64()
            .ok_or_else(|| format!("counter '{name}' is not a number"))?;
        out.push((format!("counter:{name}"), n));
    }
    for (name, val) in section("gauges")? {
        let n = val
            .as_f64()
            .ok_or_else(|| format!("gauge '{name}' is not a number"))?;
        out.push((format!("gauge:{name}"), n));
    }
    for (name, val) in section("histograms")? {
        let count = val
            .get("count")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("histogram '{name}' missing count"))?;
        let sum = val
            .get("sum")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("histogram '{name}' missing sum"))?;
        let mean = if count > 0.0 { sum / count } else { 0.0 };
        out.push((format!("hist:{name}.mean"), mean));
    }
    Ok(out)
}

/// Loads either export format into comparable components. Timeseries
/// exports are sniffed by their TSV header or a `window_ns` key; anything
/// else must be a metrics JSON object.
fn load_components(path: &str) -> Result<Components, String> {
    let text = read_file(path)?;
    if text.starts_with("# longsight timeseries") {
        let export = Export::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        return Ok(timeseries_components(&export));
    }
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if v.get("window_ns").is_some() {
        let export = Export::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        return Ok(timeseries_components(&export));
    }
    metrics_components(&v).map_err(|e| format!("{path}: {e}"))
}

/// Relative delta in percent; `None` when the baseline is zero and the
/// candidate is not (an infinite ratio, reported as NEW SIGNAL).
fn delta_pct(base: f64, cand: f64) -> Option<f64> {
    if base == 0.0 {
        return (cand == 0.0).then_some(0.0);
    }
    Some((cand / base - 1.0) * 100.0)
}

/// `--baseline A --candidate B`: strict series-set comparison.
fn diff_exports(a: &Args) -> Result<(), String> {
    let base_path = a.get("baseline").map(str::to_string);
    let cand_path = a.get("candidate").map(str::to_string);
    let (Some(base_path), Some(cand_path)) = (base_path, cand_path) else {
        return Err(
            "perf-diff needs both --baseline and --candidate (or --gate / --self-check)".into(),
        );
    };
    let threshold: f64 = a.get_or("threshold-pct", 10.0)?;
    if !(threshold > 0.0 && threshold.is_finite()) {
        return Err(format!(
            "--threshold-pct must be a positive percentage, got {threshold}"
        ));
    }
    let base = load_components(&base_path)?;
    let cand = load_components(&cand_path)?;
    let base_names: Vec<&str> = base.iter().map(|(n, _)| n.as_str()).collect();
    let cand_names: Vec<&str> = cand.iter().map(|(n, _)| n.as_str()).collect();
    let missing: Vec<&str> = base_names
        .iter()
        .filter(|n| !cand_names.contains(n))
        .copied()
        .collect();
    let extra: Vec<&str> = cand_names
        .iter()
        .filter(|n| !base_names.contains(n))
        .copied()
        .collect();
    if !missing.is_empty() || !extra.is_empty() {
        return Err(format!(
            "component sets differ: missing from candidate [{}], new in candidate [{}]",
            missing.join(", "),
            extra.join(", ")
        ));
    }
    let mut regressions = Vec::new();
    let mut moved = 0usize;
    for (name, b) in &base {
        let c = cand
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        let label = match delta_pct(*b, c) {
            None => "new signal".to_string(),
            Some(d) if d.abs() > threshold => format!("{d:+.1}%"),
            Some(_) => continue,
        };
        moved += 1;
        let worse = higher_is_worse(name) && c > *b;
        let tag = if worse { "REGRESSED" } else { "changed" };
        println!("  {tag:<9} {name}: {b} -> {c} ({label})");
        if worse {
            regressions.push(name.clone());
        }
    }
    println!(
        "perf-diff: {} components, {moved} moved past {threshold}%, {} regressed",
        base.len(),
        regressions.len()
    );
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} component(s) regressed past {threshold}%: {}",
            regressions.len(),
            regressions.join(", ")
        ))
    }
}

/// `--self-check FILE`: structural validation of one timeseries export —
/// the CI hook that proves a freshly written export parses back.
fn self_check(path: &str) -> Result<(), String> {
    let export = load_export(path)?;
    if export.columns.is_empty() {
        return Err(format!("{path}: export has no series"));
    }
    let windows = export.windows();
    if windows == 0 {
        return Err(format!("{path}: export has no sample windows"));
    }
    for (name, values) in &export.columns {
        if values.len() != windows {
            return Err(format!(
                "{path}: series '{name}' has {} windows, expected {windows}",
                values.len()
            ));
        }
    }
    println!(
        "self-check ok: {path} — {} series x {windows} windows, {:.0} ms/window",
        export.columns.len(),
        export.window_ns / 1e6
    );
    Ok(())
}

/// One trajectory key resolved against the golden tables: which file and
/// where in it the value sits.
struct GateSpec {
    file: &'static str,
    row: GateRow,
}

/// Where a pinned value sits in its golden file.
#[derive(Debug, PartialEq)]
enum GateRow {
    /// A `|`-separated table: the row where every `(column, text)` matcher
    /// hits, then column `field` (1-based).
    Table {
        matchers: Vec<(usize, String)>,
        field: usize,
    },
    /// A timing-harness report line `name time: [min median max]`: the
    /// median, converted to ms.
    Timing { name: String },
}

/// Maps a `results/trajectory.tsv` key to its golden-table lookup. The key
/// grammar mirrors the tables: `sched_comparison/8s/slo-aware/...`,
/// `router_scaling/2r/jsq/...`, `lookahead/32slots/0.25ms/p99_token_ms`,
/// `fleet_availability/2r/0.10/breaker/...`,
/// `session_reuse/2r/0.90/affinity/...`,
/// `fig7_kernel/packed/ns_per_key` (the host scan-kernel row — the pinned
/// value is ns per key, not ms, and wall-clock, so its threshold is set
/// generously in the trajectory file), and
/// `kernels/<bench name>/median_ms` (a `kernels` bench row's median
/// wall-clock, likewise with a generous threshold).
fn gate_spec(key: &str) -> Result<GateSpec, String> {
    let parts: Vec<&str> = key.split('/').collect();
    let part = |i: usize| -> Result<&str, String> {
        parts
            .get(i)
            .copied()
            .ok_or_else(|| format!("trajectory key '{key}' is missing segment {i}"))
    };
    match parts[0] {
        "sched_comparison" => {
            let rate = part(1)?
                .strip_suffix('s')
                .ok_or_else(|| format!("key '{key}': rate segment must end in 's'"))?;
            Ok(GateSpec {
                file: "results/sched_comparison.txt",
                row: GateRow::Table {
                    matchers: vec![
                        (1, format!("{rate}/s")),
                        (2, part(2)?.to_string()),
                        (3, "interactive".to_string()),
                    ],
                    field: 8,
                },
            })
        }
        "router_scaling" => {
            let n = part(1)?
                .strip_suffix('r')
                .ok_or_else(|| format!("key '{key}': replica segment must end in 'r'"))?;
            Ok(GateSpec {
                file: "results/router_scaling.txt",
                row: GateRow::Table {
                    matchers: vec![(1, n.to_string()), (2, part(2)?.to_string())],
                    field: 7,
                },
            })
        }
        "lookahead" => {
            let slots = part(1)?
                .strip_suffix("slots")
                .ok_or_else(|| format!("key '{key}': slots segment must end in 'slots'"))?;
            let penalty = part(2)?
                .strip_suffix("ms")
                .ok_or_else(|| format!("key '{key}': penalty segment must end in 'ms'"))?;
            Ok(GateSpec {
                file: "results/lookahead.txt",
                row: GateRow::Table {
                    matchers: vec![(1, slots.to_string()), (2, format!("{penalty} ms"))],
                    field: 8,
                },
            })
        }
        "fleet_availability" => {
            let n = part(1)?
                .strip_suffix('r')
                .ok_or_else(|| format!("key '{key}': replica segment must end in 'r'"))?;
            let breaker = match part(3)? {
                "breaker" => "on",
                "nobreaker" => "off",
                other => {
                    return Err(format!(
                        "key '{key}': segment 3 must be breaker|nobreaker, got '{other}'"
                    ))
                }
            };
            Ok(GateSpec {
                file: "results/fleet_availability.txt",
                row: GateRow::Table {
                    matchers: vec![
                        (1, n.to_string()),
                        (2, part(2)?.to_string()),
                        (3, breaker.to_string()),
                    ],
                    field: 6,
                },
            })
        }
        "session_reuse" => {
            let n = part(1)?
                .strip_suffix('r')
                .ok_or_else(|| format!("key '{key}': replica segment must end in 'r'"))?;
            Ok(GateSpec {
                file: "results/session_reuse.txt",
                row: GateRow::Table {
                    matchers: vec![
                        (1, n.to_string()),
                        (2, part(2)?.to_string()),
                        (3, part(3)?.to_string()),
                    ],
                    field: 9,
                },
            })
        }
        "fig7_kernel" => {
            if part(1)? != "packed" || part(2)? != "ns_per_key" {
                return Err(format!(
                    "key '{key}': only fig7_kernel/packed/ns_per_key is pinned"
                ));
            }
            Ok(GateSpec {
                file: "results/fig7_throughput.txt",
                row: GateRow::Table {
                    matchers: vec![(1, "packed scan".to_string())],
                    field: 4,
                },
            })
        }
        "kernels" => {
            if part(2)? != "median_ms" {
                return Err(format!(
                    "key '{key}': a kernels row pins its median_ms, got '{}'",
                    part(2)?
                ));
            }
            Ok(GateSpec {
                file: "results/kernels.txt",
                row: GateRow::Timing {
                    name: part(1)?.to_string(),
                },
            })
        }
        other => Err(format!("unknown trajectory table '{other}' in key '{key}'")),
    }
}

/// Reads the spec's value out of its golden file's text.
fn lookup(spec: &GateSpec, text: &str) -> Result<f64, String> {
    match &spec.row {
        GateRow::Table { matchers, field } => table_lookup(spec.file, matchers, *field, text),
        GateRow::Timing { name } => timing_lookup(spec.file, name, text),
    }
}

/// Finds the spec's row in its golden table and extracts the latency
/// column: fields are `|`-separated and whitespace-trimmed, the value is
/// a number with an optional ` ms` suffix. First matching row wins, like
/// the awk scan this replaces.
fn table_lookup(
    file: &str,
    matchers: &[(usize, String)],
    field: usize,
    text: &str,
) -> Result<f64, String> {
    for line in text.lines() {
        let fields: Vec<&str> = line.split('|').map(str::trim).collect();
        let hit = matchers
            .iter()
            .all(|(i, want)| fields.get(i - 1).copied() == Some(want.as_str()));
        if !hit {
            continue;
        }
        let raw = fields
            .get(field - 1)
            .ok_or_else(|| format!("{file}: matched row has no field {field} ('{line}')"))?;
        let num = raw.strip_suffix("ms").unwrap_or(raw).trim();
        return num
            .parse()
            .map_err(|_| format!("{file}: field {field} is not a number: '{raw}'"));
    }
    Err(format!(
        "{file}: no row matches {:?}",
        matchers.iter().map(|(_, v)| v.as_str()).collect::<Vec<_>>()
    ))
}

/// Finds the timing-harness line of bench `name`
/// (`name time: [1.00 ms 2.00 ms 3.00 ms]`) and returns its median in ms.
fn timing_lookup(file: &str, name: &str, text: &str) -> Result<f64, String> {
    let line = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .ok_or_else(|| format!("{file}: no timing row named '{name}'"))?;
    let triple = line
        .split_once('[')
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(inner, _)| inner.split_whitespace().collect::<Vec<_>>())
        .filter(|t| t.len() == 6)
        .ok_or_else(|| format!("{file}: '{name}' has no [min median max] triple ('{line}')"))?;
    let value: f64 = triple[2]
        .parse()
        .map_err(|_| format!("{file}: '{name}' median is not a number: '{}'", triple[2]))?;
    let per_ms = match triple[3] {
        "ns" => 1e-6,
        "us" => 1e-3,
        "ms" => 1.0,
        "s" => 1e3,
        unit => return Err(format!("{file}: '{name}' median has unknown unit '{unit}'")),
    };
    Ok(value * per_ms)
}

/// `--gate TRAJ`: the CI trajectory gate. Each non-comment line of the
/// trajectory file is `key<TAB>pinned_ms[<TAB>threshold_pct]`; the current
/// value is re-read from the checked-in golden table and must not exceed
/// the pinned value by more than the threshold (default `--threshold-pct`,
/// overridable per key via the optional third column).
fn gate(a: &Args, traj_path: &str) -> Result<(), String> {
    let default_threshold: f64 = a.get_or("threshold-pct", 10.0)?;
    if !(default_threshold > 0.0 && default_threshold.is_finite()) {
        return Err(format!(
            "--threshold-pct must be a positive percentage, got {default_threshold}"
        ));
    }
    let traj = read_file(traj_path)?;
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for (lineno, line) in traj.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() < 2 {
            return Err(format!(
                "{traj_path}:{}: expected key<TAB>p99_ms, got '{line}'",
                lineno + 1
            ));
        }
        let key = cols[0];
        let pinned: f64 = cols[1].parse().map_err(|_| {
            format!(
                "{traj_path}:{}: pinned value '{}' is not a number",
                lineno + 1,
                cols[1]
            )
        })?;
        let threshold = match cols.get(2) {
            None => default_threshold,
            Some(t) => {
                let t: f64 = t.parse().map_err(|_| {
                    format!(
                        "{traj_path}:{}: threshold '{t}' is not a number",
                        lineno + 1
                    )
                })?;
                if !(t > 0.0 && t.is_finite()) {
                    return Err(format!(
                        "{traj_path}:{}: threshold must be positive, got {t}",
                        lineno + 1
                    ));
                }
                t
            }
        };
        let spec = gate_spec(key)?;
        let current = lookup(&spec, &read_file(spec.file)?)?;
        checked += 1;
        if current > pinned * (1.0 + threshold / 100.0) {
            failures.push(format!(
                "{key} regressed: {current} ms vs pinned {pinned} ms ({:+.1}%, limit {threshold}%)",
                (current / pinned - 1.0) * 100.0
            ));
        } else {
            println!("   {key:<56} {current:>8} ms (pinned {pinned} ms, limit {threshold}%)");
        }
    }
    if checked == 0 {
        return Err(format!("{traj_path}: no trajectory entries to check"));
    }
    if failures.is_empty() {
        println!("trajectory gate passed: {checked} pinned tail(s) within limits");
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// `longsight perf-diff` — three modes: `--self-check FILE` validates one
/// timeseries export, `--gate TRAJ` runs the CI trajectory gate, and
/// `--baseline A --candidate B` diffs two exports component by component.
pub fn perf_diff(a: &Args) -> Result<(), String> {
    a.ensure_known(&[
        "self-check",
        "gate",
        "baseline",
        "candidate",
        "threshold-pct",
    ])?;
    let modes = [
        a.get("self-check").is_some(),
        a.get("gate").is_some(),
        a.get("baseline").is_some() || a.get("candidate").is_some(),
    ];
    if modes.iter().filter(|m| **m).count() > 1 {
        return Err(
            "pick one perf-diff mode: --self-check, --gate, or --baseline/--candidate".into(),
        );
    }
    if let Some(path) = a.get("self-check") {
        return self_check(path);
    }
    if let Some(traj) = a.get("gate") {
        return gate(a, traj);
    }
    diff_exports(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_and_marks_gaps() {
        let values = vec![Some(0.0), Some(1.0), None, Some(0.5)];
        let s = sparkline(&values, 4);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 4);
        assert_eq!(chars[0], SPARK[0]);
        assert_eq!(chars[1], SPARK[7]);
        assert_eq!(chars[2], SPARK_GAP);
        assert_eq!(chars[3], SPARK[4]);
    }

    #[test]
    fn replica_prefixes_split_into_panels() {
        assert_eq!(replica_of("r0.queue.interactive"), Some(0));
        assert_eq!(replica_of("r12.up"), Some(12));
        assert_eq!(replica_of("arrivals"), None);
        assert_eq!(replica_of("rx.breaker"), None);
    }

    #[test]
    fn gate_keys_map_to_their_golden_tables() {
        let table = |key: &str| match gate_spec(key).unwrap() {
            GateSpec {
                file,
                row: GateRow::Table { matchers, field },
            } => (file, matchers, field),
            GateSpec { row, .. } => panic!("{key} is not a table row: {row:?}"),
        };
        let (file, matchers, field) =
            table("sched_comparison/8s/slo-aware/interactive_p99_request_ms");
        assert_eq!(file, "results/sched_comparison.txt");
        assert_eq!(matchers[0], (1, "8/s".to_string()));
        assert_eq!(field, 8);
        let (_, matchers, field) =
            table("fleet_availability/2r/0.10/breaker/interactive_p99_request_ms");
        assert_eq!(matchers[2], (3, "on".to_string()));
        assert_eq!(field, 6);
        let (file, matchers, field) =
            table("session_reuse/2r/0.90/affinity/interactive_p99_request_ms");
        assert_eq!(file, "results/session_reuse.txt");
        assert_eq!(
            matchers,
            vec![
                (1, "2".to_string()),
                (2, "0.90".to_string()),
                (3, "affinity".to_string()),
            ]
        );
        assert_eq!(field, 9);
        assert!(gate_spec("session_reuse/2/0.90/affinity/x").is_err());
        assert!(gate_spec("unknown_table/1/2").is_err());
        let (file, matchers, field) = table("fig7_kernel/packed/ns_per_key");
        assert_eq!(file, "results/fig7_throughput.txt");
        assert_eq!(matchers, vec![(1, "packed scan".to_string())]);
        assert_eq!(field, 4);
        assert!(gate_spec("fig7_kernel/perkey/ns_per_key").is_err());
        let s = gate_spec("kernels/itq_train_1024x128_30it/median_ms").unwrap();
        assert_eq!(s.file, "results/kernels.txt");
        assert_eq!(
            s.row,
            GateRow::Timing {
                name: "itq_train_1024x128_30it".to_string()
            }
        );
        assert!(gate_spec("kernels/itq_train_1024x128_30it/max_ms").is_err());
        assert!(gate_spec("kernels/itq_train_1024x128_30it").is_err());
    }

    #[test]
    fn kernel_row_lookup_reads_the_packed_ns_per_key() {
        let table = "\
 kernel       | keys  | dim | ns per key | speedup
 per-key scan | 65536 | 128 | 4.872      | 1.00x
 packed scan  | 65536 | 128 | 2.867      | 1.70x (bit-identical: yes)
";
        let spec = gate_spec("fig7_kernel/packed/ns_per_key").unwrap();
        assert_eq!(lookup(&spec, table).unwrap(), 2.867);
    }

    #[test]
    fn timing_row_lookup_reads_the_median_in_ms() {
        let text = "\
itq_train_256x64_10it   time:   [65.45 ms 67.78 ms 89.15 ms]
itq_train_1024x128_30it time:   [512.00 ms 530.50 ms 601.00 ms]
itq_apply_64d           time:   [511.40 ns 520.26 ns 677.02 ns]
";
        let at = |name: &str| {
            lookup(
                &gate_spec(&format!("kernels/{name}/median_ms")).unwrap(),
                text,
            )
        };
        assert_eq!(at("itq_train_1024x128_30it").unwrap(), 530.5);
        assert!((at("itq_apply_64d").unwrap() - 520.26e-6).abs() < 1e-12);
        assert!(at("itq_train_64x64_1it").is_err());
        assert!(lookup(
            &gate_spec("kernels/x/median_ms").unwrap(),
            "x time: [1 ms 2 parsecs 3 ms]"
        )
        .is_err());
    }

    #[test]
    fn prefix_cache_gauges_land_in_replica_panels() {
        // The dashboard's per-replica grouping must pick up the session
        // prefix-cache gauges exactly like the queue/occupancy series.
        assert_eq!(replica_of("r0.prefix.reuse"), Some(0));
        assert_eq!(replica_of("r3.prefix.pinned_pages"), Some(3));
    }

    #[test]
    fn table_lookup_matches_trimmed_fields_and_strips_ms() {
        let table = "\
 Rate | Policy    | Class       | a | b | c | d | p99 req
 8/s  | slo-aware | interactive | 1 | 2 | 3 | 4 | 2249 ms
";
        let spec = gate_spec("sched_comparison/8s/slo-aware/interactive_p99_request_ms").unwrap();
        assert_eq!(lookup(&spec, table).unwrap(), 2249.0);
        let missing =
            gate_spec("sched_comparison/16s/slo-aware/interactive_p99_request_ms").unwrap();
        assert!(lookup(&missing, table).is_err());
    }

    #[test]
    fn higher_is_worse_targets_latency_components() {
        assert!(higher_is_worse("gauge:serve.step_ms"));
        assert!(higher_is_worse("lat.request_ms.p99.mean"));
        assert!(higher_is_worse("hist:sched.latency_ms.mean"));
        assert!(!higher_is_worse("counter:serve.fault_events"));
        assert!(!higher_is_worse("arrivals"));
    }

    #[test]
    fn delta_pct_treats_zero_baseline_as_new_signal() {
        assert_eq!(delta_pct(0.0, 0.0), Some(0.0));
        assert_eq!(delta_pct(0.0, 1.0), None);
        assert_eq!(delta_pct(100.0, 110.0), Some(10.000000000000009));
    }
}
