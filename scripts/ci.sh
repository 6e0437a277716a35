#!/usr/bin/env bash
# Offline CI gate for the LongSight reproduction.
#
# The workspace has zero external dependencies, so every step below runs
# without network access (--offline). Steps:
#   1. formatting check
#   2. lint gate (clippy, warnings are errors)
#   3. no-unwrap gate for the fault-hardened crates
#   3b. packed-sign-store gate (no per-key SignBits in the hybrid scan)
#   3c. percentile-selection gate (no full f64 sort in sched/system code:
#       percentiles select their rank in O(n))
#   3d. one-function-per-operation gate (no `try_*` / `*_traced` /
#       `*_injected` / `*_with_replays` variants in the cxl link or the
#       drex offload, DCC and device models)
#   3e. no-per-token-sample-vector gate (sched/system keep token latencies
#       as exact value counts: no `Vec<f64>` named for tokens, no
#       `for _ in 0..` loop pushing one latency copy per token)
#   4. sim-time-only gate (no wall-clock reads in the instrumented crates)
#   5. release build (all crates, all bench targets compile), then the
#      scf kernel smoke (packed scan bit-identical to and faster than the
#      per-key walk)
#   6. observability smoke: serve/profile with --trace-out, validate the
#      exported Chrome trace JSON round-trips through `trace-validate`
#   7. scheduler smoke: SLO-mixed loadtest under the slo-aware policy with
#      a traced run, validated the same way
#   8. fleet smokes: multi-replica routing, then the 2-replica crash run
#      with --timeseries-out validated by `perf-diff --self-check`
#   9. lookahead smoke: speculative loadtest with a traced run, validated
#      the same way
#  10. session smokes: 2-replica session workload under affinity routing
#      with a traced run, validated the same way, then the same workload
#      under the crash profile with the breaker on, --trace-out validated
#      by `trace-validate` and --timeseries-out by `perf-diff --self-check`
#  11. perf trajectory gate: `perf-diff --gate results/trajectory.tsv`
#      re-reads the checked-in goldens and fails on a >10% interactive-p99
#      regression against the pinned values
#  12. rustdoc gate (missing/broken docs are errors)
#  13. full test suite (unit + property + integration + doc tests)
#  14. the benchmark's own tests (perfbench is a separate Cargo workspace):
#      among them, its quality walk must equal fig3::measure_with_rotation
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

# The error-model refactor removed panicking paths from the CXL link, the
# DReX offload hot path, the serving stack, and the scheduler/router; keep
# them out. Test modules (everything at and below the first `#[cfg(test)]`
# in a file) may unwrap.
echo "== no-unwrap gate (cxl, drex offload, system, sched) =="
unwrap_hits=$(
    find crates/cxl/src crates/system/src crates/sched/src -name '*.rs' -print0 |
        xargs -0 -I{} sh -c 'awk "/#\\[cfg\\(test\\)\\]/ {exit} /\\.unwrap\\(\\)/ {print FILENAME \":\" FNR \": \" \$0}" {}'
    awk '/#\[cfg\(test\)\]/ {exit} /\.unwrap\(\)/ {print FILENAME ":" FNR ": " $0}' \
        crates/drex/src/offload.rs
)
if [ -n "$unwrap_hits" ]; then
    echo "error: .unwrap() outside tests in fault-hardened code:" >&2
    echo "$unwrap_hits" >&2
    exit 1
fi

# The hybrid scan hot path must stream the packed SignArena, not rebuild
# per-key SignBits heap objects (the regression the bitplane kernel
# removed). Query-side sign packing is fine; per-key construction, a
# per-key vector, or the old HeadSignCache are not. Test modules may do
# whatever they like.
echo "== packed-sign-store gate (no per-key SignBits in the hybrid scan) =="
packed_hits=$(
    awk '/#\[cfg\(test\)\]/ {exit} /SignBits::from_slice|Vec<SignBits>|HeadSignCache/ {print FILENAME ":" FNR ": " $0}' \
        crates/core/src/hybrid.rs
)
if [ -n "$packed_hits" ]; then
    echo "error: per-key SignBits construction in the hybrid scan hot path:" >&2
    echo "$packed_hits" >&2
    exit 1
fi

# Every reported percentile in the scheduler and the serving stack is an
# O(n) in-place selection (`select_nth_unstable_by`); a full sort of the
# latency samples is the host cost that selection removed. Test modules
# (each file from its first `#[cfg(test)]` on) may sort to build
# reference values.
echo "== percentile-selection gate (no full f64 sort in sched, system) =="
sort_hits=$(
    find crates/sched/src crates/system/src -name '*.rs' -print0 |
        xargs -0 awk 'FNR == 1 {skip = 0} /#\[cfg\(test\)\]/ {skip = 1}
            !skip && /sort(_unstable)?_by\(f64::total_cmp\)/ {print FILENAME ":" FNR ": " $0}'
)
if [ -n "$sort_hits" ]; then
    echo "error: full f64 sort outside tests in sched/system (select the rank instead):" >&2
    echo "$sort_hits" >&2
    exit 1
fi

# Each DReX/CXL timing operation is one function: tracing is an optional
# argument and fault effects are plain inputs, so a plain / try_ / _traced /
# _injected / _with_replays family must not grow back. Test modules (each
# file from its first `#[cfg(test)]` on) are exempt.
echo "== one-function-per-operation gate (cxl, drex offload/dcc/device) =="
variant_hits=$(
    awk 'FNR == 1 {skip = 0} /#\[cfg\(test\)\]/ {skip = 1}
        !skip && /pub fn (try_|[A-Za-z0-9_]*_(traced|injected|with_replays)[^A-Za-z0-9_])/ {
            print FILENAME ":" FNR ": " $0
        }' \
        crates/cxl/src/lib.rs crates/drex/src/offload.rs \
        crates/drex/src/dcc.rs crates/drex/src/device.rs
)
if [ -n "$variant_hits" ]; then
    echo "error: variant of a DReX/CXL timing operation (fold it into the one function):" >&2
    echo "$variant_hits" >&2
    exit 1
fi

# Per-token latencies in the scheduler and the serving stack are exact
# value → multiplicity counts (`LatencyCounts`), so their memory grows with
# distinct step durations, not with tokens served. A `Vec<f64>` binding or
# field named for tokens (`tok`/`token`), or a `for _ in 0..` loop that
# pushes within its first lines (one latency copy per token), is the
# expansion the counts replaced. Test modules (each file from its first
# `#[cfg(test)]` on) are exempt.
echo "== no-per-token-sample-vector gate (sched, system) =="
token_hits=$(
    find crates/sched/src crates/system/src -name '*.rs' -print0 |
        xargs -0 awk 'FNR == 1 {skip = 0; loop = 0} /#\[cfg\(test\)\]/ {skip = 1} skip {next}
            /[A-Za-z0-9_]*tok[A-Za-z0-9_]*[[:space:]]*:[^=;]*Vec<f64>/ {
                print FILENAME ":" FNR ": " $0
            }
            /for _ in 0\.\./ {loop = FNR}
            loop && FNR - loop <= 3 && /\.push\(/ {print FILENAME ":" FNR ": " $0; loop = 0}'
)
if [ -n "$token_hits" ]; then
    echo "error: per-token latency samples in sched/system (add to a LatencyCounts instead):" >&2
    echo "$token_hits" >&2
    exit 1
fi

# Traces and metrics must carry *simulated* time only: a wall-clock read
# anywhere in the instrumented crates would break byte-identical exports
# across thread counts and reruns.
echo "== sim-time gate (no std::time::Instant / SystemTime) =="
clock_hits=$(grep -rn 'std::time::Instant\|SystemTime' \
    crates/obs/src crates/system/src crates/drex/src \
    crates/dram/src crates/cxl/src crates/faults/src || true)
if [ -n "$clock_hits" ]; then
    echo "error: wall-clock reads in sim-time-instrumented crates:" >&2
    echo "$clock_hits" >&2
    exit 1
fi

# Every `#[ignore]` must carry a reason string (`#[ignore = "..."]`) so a
# skipped test is never silent about why. The four annotated manual
# harnesses — three in tests/itq_diagnostics.rs and one in
# tests/param_tuning.rs — pass this gate because they name their reason.
echo "== annotated-ignore gate (no bare #[ignore]) =="
ignore_hits=$(grep -rn '#\[ignore\]' tests crates || true)
if [ -n "$ignore_hits" ]; then
    echo "error: bare #[ignore] without a reason string:" >&2
    echo "$ignore_hits" >&2
    exit 1
fi

echo "== cargo build --release --offline =="
cargo build --release --workspace --offline

# The packed scan kernel must stay bit-identical to the per-key walk and
# faster than it (the bench target asserts both and exits non-zero
# otherwise); the packed row's absolute ns/key is additionally pinned in
# results/trajectory.tsv via the perf gate below.
echo "== scf kernel smoke (per-key vs bitplane-packed) =="
cargo bench -p longsight-bench --bench scf_kernel --offline

echo "== observability smoke (serve/profile --trace-out, trace-validate) =="
obs_tmp=$(mktemp -d)
trap 'rm -rf "$obs_tmp"' EXIT
target/release/longsight serve --model 8b --ctx 131072 --users 4 \
    --trace-out "$obs_tmp/serve_trace.json" --metrics-out "$obs_tmp/serve_metrics.json"
target/release/longsight profile --model 8b --duration 5 \
    --fault-profile mild --fault-seed 11 --host-kernels on \
    --trace-out "$obs_tmp/profile_trace.json" --metrics-out "$obs_tmp/profile_metrics.json"
target/release/longsight trace-validate --file "$obs_tmp/serve_trace.json"
target/release/longsight trace-validate --file "$obs_tmp/profile_trace.json"

echo "== scheduler smoke (SLO-mixed loadtest, trace-validate) =="
target/release/longsight loadtest --model 1b --rate 8 --duration 4 \
    --ctx-min 16384 --ctx-max 32768 --sched slo-aware --mix 0.5,0.3,0.2 \
    --prefill-chunk 128 --watermark 0.01 \
    --trace-out "$obs_tmp/sched_trace.json"
target/release/longsight trace-validate --file "$obs_tmp/sched_trace.json"

echo "== fleet smoke (2-replica loadtest, both routers) =="
target/release/longsight loadtest --model 1b --rate 12 --duration 4 \
    --ctx-min 16384 --ctx-max 32768 --replicas 2 --router jsq \
    --trace-out "$obs_tmp/fleet_trace.json"
target/release/longsight trace-validate --file "$obs_tmp/fleet_trace.json"
target/release/longsight loadtest --model 1b --rate 12 --duration 4 \
    --ctx-min 16384 --ctx-max 32768 --replicas 2 --router rr

echo "== fleet availability smoke (2-replica crash profile, trace + timeseries) =="
target/release/longsight loadtest --model 1b --rate 10 --duration 6 \
    --ctx-min 16384 --ctx-max 32768 --sched slo-aware --replicas 2 --router jsq \
    --crash-profile 0.1 --crash-seed 11 --breaker on \
    --trace-out "$obs_tmp/fleet_faults_trace.json" \
    --timeseries-out "$obs_tmp/fleet_ts.tsv"
target/release/longsight trace-validate --file "$obs_tmp/fleet_faults_trace.json"
target/release/longsight perf-diff --self-check "$obs_tmp/fleet_ts.tsv"

echo "== lookahead smoke (speculative loadtest, trace-validate) =="
target/release/longsight loadtest --model 8b --rate 2 --duration 4 \
    --ctx-min 131072 --ctx-max 131072 --lookahead on \
    --trace-out "$obs_tmp/lookahead_trace.json"
target/release/longsight trace-validate --file "$obs_tmp/lookahead_trace.json"

echo "== session smoke (2-replica affinity loadtest, trace-validate) =="
target/release/longsight loadtest --model 1b --duration 8 \
    --ctx-min 16384 --ctx-max 32768 --out-min 16 --out-max 64 \
    --replicas 2 --router affinity \
    --sessions 4 --turns 3 --think-time-ms 1500 --reuse 0.9 \
    --trace-out "$obs_tmp/session_trace.json"
target/release/longsight trace-validate --file "$obs_tmp/session_trace.json"

echo "== session smoke under replica crashes (crash profile + breaker, trace + timeseries) =="
target/release/longsight loadtest --model 1b --duration 8 \
    --ctx-min 16384 --ctx-max 32768 --out-min 16 --out-max 64 \
    --replicas 2 --router affinity \
    --sessions 4 --turns 3 --think-time-ms 1500 --reuse 0.9 \
    --crash-profile 0.1 --crash-seed 11 --breaker on \
    --trace-out "$obs_tmp/session_faults_trace.json" \
    --timeseries-out "$obs_tmp/session_faults_ts.tsv"
target/release/longsight trace-validate --file "$obs_tmp/session_faults_trace.json"
target/release/longsight perf-diff --self-check "$obs_tmp/session_faults_ts.tsv"

# Interactive tail-latency trajectory: the checked-in goldens must not
# regress the interactive p99 request latency more than 10% past the values
# pinned in results/trajectory.tsv. Regenerating a golden with a worse tail
# forces an explicit, same-commit update of the trajectory file. The key
# grammar and golden-table parsing live in `longsight perf-diff` (tested in
# crates/cli/src/perf.rs), not in ad-hoc awk here.
echo "== perf trajectory gate (interactive p99 vs results/trajectory.tsv) =="
target/release/longsight perf-diff --gate results/trajectory.tsv

echo "== cargo doc -D warnings =="
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline --quiet

echo "== cargo test -q --offline =="
cargo test --workspace --offline -q

echo "== benchmark tests (perfbench) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "CI gate passed."
