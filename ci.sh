#!/usr/bin/env bash
# Repository CI: tier-1 verification plus lint/format gates.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# The one report check of the smoke stages: the report parses as JSON,
# every named key appears somewhere in it outside its "gates" object (nested
# profiles included, so a gate cannot stand in for a missing counter), every
# named gate is present in "gates", and every gate there is true.
# Usage: check_report REPORT "KEY ..." "GATE ..."
check_report() {
    python3 - "$@" <<'EOF'
import json, sys
path, keys, gates = sys.argv[1], sys.argv[2].split(), sys.argv[3].split()
report = json.load(open(path))
seen = set()
def walk(o):
    if isinstance(o, dict):
        seen.update(o)
        for v in o.values():
            walk(v)
    elif isinstance(o, list):
        for v in o:
            walk(v)
got = report.get("gates", {})
walk({k: v for k, v in report.items() if k != "gates"})
bad = [f"missing key {k}" for k in keys if k not in seen]
bad += [f"gate {g} missing" for g in gates if g not in got]
bad += [f"gate {g} is {v}" for g, v in got.items() if v is not True]
if bad:
    sys.exit(f"FAIL: {path}: " + "; ".join(bad))
print(f"    report OK: {len(keys)} keys present, {len(got)} gates true")
EOF
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> bench smoke: fig7_flashio --quick (profiling enabled)"
report_dir=$(mktemp -d)
PNETCDF_REPORT_DIR="$report_dir" ./target/release/fig7_flashio --quick >/dev/null
report="$report_dir/fig7_flashio.profile.json"
[ -f "$report" ] || { echo "FAIL: $report was not written"; exit 1; }
for key in exchange_offsets exchange_data disk_write disk_read metadata wait \
           collbuf_pack compute p2p cache coverage per_rank twophase \
           bytepath flatten_hits flatten_hit_rate fused_pack_bytes \
           copies_elided borrowed_bytes; do
    grep -q "\"$key\"" "$report" || { echo "FAIL: report missing key \"$key\""; exit 1; }
done
rm -rf "$report_dir"
[ -f BENCH_fig7.json ] || { echo "FAIL: BENCH_fig7.json was not written"; exit 1; }
echo "    report OK: all phase keys present; BENCH_fig7.json written"

echo "==> fault smoke: FLASH checkpoint under injected faults"
report_dir=$(mktemp -d)
PNETCDF_REPORT_DIR="$report_dir" ./target/release/fault_smoke
check_report "$report_dir/fault_smoke.profile.json" \
    "faults faults_injected retries backoff_time short_completions
     agreed_errors" \
    "faulty_byte_identical faults_injected faults_retried faulty_no_exhaustion
     phase_coverage_exact crash_spec_round_trips crash_error_identical
     crash_exhausted crash_bounded crash_agreed no_failover_without_parity
     windows_spec_round_trips windows_byte_identical windows_hit
     windows_retried windows_no_exhaustion"
rm -rf "$report_dir"

echo "==> failover smoke: parity carries the checkpoint through a server crash"
report_dir=$(mktemp -d)
PNETCDF_REPORT_DIR="$report_dir" ./target/release/failover_smoke
check_report "$report_dir/failover_smoke.profile.json" \
    "degraded_reads reconstructed_bytes redirected_writes rebuilds rebuilt_bytes
     parity_updates epochs rebuild_time" \
    "parity_overlay_byte_identical baseline_parity_maintained baseline_no_epoch
     baseline_no_degraded_reads parity_off_pays_no_parity
     degraded_write_before_restart server_failed_over one_epoch
     writes_redirected ladder_exhausted failure_agreed
     degraded_read_byte_identical degraded_reads bytes_reconstructed
     rebuild_cleared_mark one_rebuild rebuilt_bytes_moved
     rebuilt_byte_identical"
rm -rf "$report_dir"

echo "==> cache smoke: FLASH checkpoint through the client page cache"
report_dir=$(mktemp -d)
PNETCDF_REPORT_DIR="$report_dir" ./target/release/cache_smoke
check_report "$report_dir/cache_smoke.profile.json" \
    "hits hit_bytes misses evictions write_behind_flushes write_behind_bytes
     readahead_issued invalidations cached_mb_s uncached_mb_s" \
    "uncached_byte_identical cached_byte_identical cache_hits write_behind
     evictions cache_faster phase_coverage_exact"
rm -rf "$report_dir"

echo "==> twophase smoke: pipelined vs serial collective engines"
report_dir=$(mktemp -d)
PNETCDF_REPORT_DIR="$report_dir" ./target/release/twophase_smoke
# The server-pipeline counters and cb_nodes sit in the nested profile.
check_report "$report_dir/twophase_smoke.profile.json" \
    "rounds overlap_saved_ns serial_mb_s pipelined_mb_s nic_busy_s disk_busy_s
     overlap_s queue_stall_s max_queue_depth cb_nodes" \
    "serial_byte_identical pipelined_byte_identical multi_round
     overlap_saved_nonzero pipelined_not_slower phase_coverage_exact
     cb_nodes_recorded server_pipeline_engaged"
rm -rf "$report_dir"

echo "==> trace smoke: 64-rank FLASH checkpoint with pnc_trace_events on"
report_dir=$(mktemp -d)
PNETCDF_REPORT_DIR="$report_dir" ./target/release/trace_smoke >/dev/null
trace="$report_dir/trace_smoke.trace.json"
report="$report_dir/trace_smoke.critical_path.json"
[ -f "$trace" ] || { echo "FAIL: $trace was not written"; exit 1; }
[ -f "$report" ] || { echo "FAIL: $report was not written"; exit 1; }
# The Chrome export must be well-formed JSON whose complete (X) spans are
# all balanced (non-negative durations) and whose only other events are
# metadata and flow links.
python3 - "$trace" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
evs = t["traceEvents"]
assert evs, "empty traceEvents"
spans = [e for e in evs if e["ph"] == "X"]
assert spans, "no complete spans"
bad = [e for e in spans if e.get("dur", -1) < 0]
assert not bad, f"unbalanced spans: {bad[:3]}"
other = {e["ph"] for e in evs} - {"X", "M", "s", "f"}
assert not other, f"unexpected event phases: {other}"
print(f"    trace JSON OK: {len(spans)} balanced spans")
EOF
for key in windows stage_totals_ns bound_counts dominant_stage \
           disk nic exchange pack queue retry cache bound_by; do
    grep -q "\"$key\"" "$report" || { echo "FAIL: critical-path report missing key \"$key\""; exit 1; }
done
rm -rf "$report_dir"
echo "    critical-path report OK: stage keys and per-window attribution present"

echo "==> service smoke: 16 sessions on a shared 4-server cluster"
report_dir=$(mktemp -d)
PNETCDF_REPORT_DIR="$report_dir" ./target/release/service_smoke >/dev/null
check_report "$report_dir/service_smoke.profile.json" \
    "aggregate_mb_s max_session_mb_s cross_file_stall_total_nanos
     cross_file_stall_s hints_rejected" \
    "hint_rejected cross_file_contention aggregate_ge_max_session deterministic"
rm -rf "$report_dir"

echo "==> microbench smoke: byte-path criterion suite (quick mode)"
report_dir=$(mktemp -d)
MICROBENCH_QUICK=1 PNETCDF_REPORT_DIR="$report_dir" \
    cargo bench -q -p pnetcdf-bench --bench microbench >/dev/null
report="$report_dir/BENCH_microbench.json"
[ -f "$report" ] || { echo "FAIL: $report was not written"; exit 1; }
# Quick mode gates at "not slower": the fused pack and the chunked swap
# kernels must not regress below their staged/per-element baselines.
for key in gate_swap4_ok gate_swap8_ok gate_pack_ok; do
    grep -q "\"$key\": true" "$report" \
        || { echo "FAIL: microbench gate \"$key\" did not pass"; exit 1; }
done
rm -rf "$report_dir"
echo "    microbench OK: swap kernels and fused pack at or above baseline"

echo "==> bench results: twophase_bench (BENCH_twophase.json), run twice"
first=$(mktemp)
./target/release/twophase_bench >/dev/null
[ -f BENCH_twophase.json ] || { echo "FAIL: BENCH_twophase.json was not written"; exit 1; }
grep -q '"speedup"' BENCH_twophase.json \
    || { echo "FAIL: BENCH_twophase.json missing speedup rows"; exit 1; }
cp BENCH_twophase.json "$first"
./target/release/twophase_bench >/dev/null
cmp "$first" BENCH_twophase.json \
    || { echo "FAIL: BENCH_twophase.json differs between two runs"; exit 1; }
rm -f "$first"
echo "    BENCH_twophase.json reproduced (the bench itself asserts >1.2x at 64 ranks)"

echo "==> bench results: fig6_scalability --quick (BENCH_fig6.json)"
report_dir=$(mktemp -d)
PNETCDF_REPORT_DIR="$report_dir" ./target/release/fig6_scalability --quick >/dev/null
rm -rf "$report_dir"
[ -f BENCH_fig6.json ] || { echo "FAIL: BENCH_fig6.json was not written"; exit 1; }
echo "    BENCH_fig6.json written"

echo "CI OK"
