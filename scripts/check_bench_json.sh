#!/usr/bin/env bash
# Smoke-checks a bench binary's machine-readable output: runs the bench in a
# scratch directory with DL_BENCH_JSON_DIR pointed there, then validates every
# emitted BENCH_<name>.json is parseable and carries the report schema
# (bench / schema_version / table / metrics with counters+gauges+histograms,
# plus the resources efficiency section: cpu_time_per_epoch_us, bytes_moved).
#
# Usage: check_bench_json.sh <bench-binary> [bench args...]
# Registered with ctest (label "obs") against bench_fig7_local_loader.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <bench-binary> [args...]" >&2
  exit 2
fi

bench="$1"
shift
if [[ ! -x "$bench" ]]; then
  echo "FAIL: bench binary not executable: $bench" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

(cd "$workdir" && DL_BENCH_JSON_DIR=. "$bench" "$@") >"$workdir/stdout.log" 2>&1 || {
  echo "FAIL: bench exited non-zero; output:" >&2
  cat "$workdir/stdout.log" >&2
  exit 1
}

shopt -s nullglob
reports=("$workdir"/BENCH_*.json)
if [[ ${#reports[@]} -eq 0 ]]; then
  echo "FAIL: bench emitted no BENCH_*.json in $workdir" >&2
  cat "$workdir/stdout.log" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  for report in "${reports[@]}"; do
  python3 - "$report" <<'PYEOF'
import json, os, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

def need(cond, msg):
    if not cond:
        print(f"FAIL: {path}: {msg}", file=sys.stderr)
        sys.exit(1)

for key in ("bench", "schema_version", "table", "metrics"):
    need(key in doc, f"missing key '{key}'")
need(doc["schema_version"] == 1, f"unexpected schema_version {doc['schema_version']}")
table = doc["table"]
need(isinstance(table.get("columns"), list) and table["columns"],
     "table.columns missing or empty")
need(isinstance(table.get("rows"), list) and table["rows"],
     "table.rows missing or empty")
for row in table["rows"]:
    need(len(row) == len(table["columns"]),
         f"row width {len(row)} != {len(table['columns'])} columns")
metrics = doc["metrics"]
for key in ("counters", "gauges", "histograms"):
    need(isinstance(metrics.get(key), list), f"metrics.{key} missing")
for h in metrics["histograms"]:
    need(len(h["buckets"]) == len(h["bounds"]) + 1,
         f"histogram {h['name']}: buckets/bounds length mismatch")
    need(sum(h["buckets"]) == h["count"],
         f"histogram {h['name']}: bucket sum != count")

# Efficiency accounting (ROADMAP item 5): every report carries the CPU
# time and bytes moved for its measured phase, so a speedup that burns
# more cycles (or moves more bytes) is visible in CI history.
need("resources" in doc, "missing key 'resources'")
resources = doc["resources"]
for key in ("cpu_time_per_epoch_us", "bytes_moved", "bytes_read",
            "bytes_written", "bytes_copied"):
    need(isinstance(resources.get(key), int) and resources[key] >= 0,
         f"resources.{key} must be an int >= 0")
need(resources["bytes_moved"] == resources["bytes_read"]
     + resources["bytes_written"] + resources["bytes_copied"],
     "resources.bytes_moved must equal read + written + copied")

# Copy-accounting and CRC dispatch fields (DESIGN.md §10). Loader benches
# must record which CRC-32C backend served the run (numbers are not
# comparable across machines otherwise) and carry the bytes_copied counter
# their claims about the zero-copy read path rest on.
extra = doc.get("extra", {})
if "crc32c.backend" in extra:
    need(extra["crc32c.backend"] in ("sse4.2", "armv8-crc", "software"),
         f"unknown crc32c.backend {extra['crc32c.backend']!r}")
if doc["bench"] == "fig7_local_loader":
    need("crc32c.backend" in extra, "fig7 must record extra['crc32c.backend']")
    dl_stages = extra.get("deeplake", {})
    need(isinstance(dl_stages.get("bytes_copied"), int)
         and dl_stages["bytes_copied"] >= 0,
         "fig7 must record extra.deeplake.bytes_copied (int >= 0)")
    raw = extra.get("deeplake_raw", {})
    for key in ("bytes_copied", "legacy_bytes_copied"):
        need(isinstance(raw.get(key), int) and raw[key] >= 0,
             f"fig7 must record extra.deeplake_raw.{key} (int >= 0)")
    need(raw.get("legacy_bytes_copied", 0) >= raw.get("bytes_copied", 0),
         "legacy copy emulation must not copy less than the slice path")
    # resources{} covers only the instrumented deeplake epoch: its CPU time
    # cannot exceed that epoch's wall time on every core of the machine.
    wall = dl_stages.get("wall_secs")
    need(isinstance(wall, (int, float)) and wall > 0,
         "fig7 must record extra.deeplake.wall_secs (> 0)")
    cpu_cap = wall * 1e6 * (os.cpu_count() or 1)
    need(resources["cpu_time_per_epoch_us"] <= cpu_cap,
         f"resources.cpu_time_per_epoch_us {resources['cpu_time_per_epoch_us']}"
         f" exceeds wall x cores = {cpu_cap:.0f}us: the window covers more"
         " than the deeplake epoch")
print(f"OK: {path} valid "
      f"({len(metrics['counters'])} counters, "
      f"{len(metrics['histograms'])} histograms, "
      f"cpu {resources['cpu_time_per_epoch_us']}us, "
      f"moved {resources['bytes_moved']}B)")
PYEOF
  done
else
  report="${reports[0]}"
  # Fallback without python3: structural greps only.
  for key in '"bench"' '"schema_version"' '"table"' '"metrics"' \
             '"counters"' '"gauges"' '"histograms"'; do
    grep -q "$key" "$report" || {
      echo "FAIL: $report missing $key" >&2
      exit 1
    }
  done
  echo "OK: $report has required keys (python3 unavailable; shallow check)"
fi
