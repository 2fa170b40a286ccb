#!/usr/bin/env bash
# Tiny-scale smoke of the serving benchmark: runs all three workloads with
# tracing off and on, and asserts that every run is correct and emits
# every metric BENCHMARK.json names (and, traced, every stamped size) with
# its unit. Takes one to four minutes, depending on how busy the host is.
#
#   bash servebench/smoke.sh
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
mkdir -p "$target"
out="$(mktemp -d "$target/servebench-smoke.XXXXXX")"
trap 'rm -rf "$out"' EXIT
for workload in ingest query explore; do
  for trace in 0 1; do
    bash "$here/run.sh" --workload "$workload" --seed 1 --seconds 1 --trace "$trace" --tiny \
      >"$out/$workload-$trace.out" 2>"$out/$workload-$trace.err" || {
      cat "$out/$workload-$trace.err" >&2
      echo "smoke FAILED: $workload trace=$trace exited non-zero" >&2
      exit 1
    }
  done
done
python3 - "$out" <<'EOF'
import json, sys
out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
want = {0: bench["end_to_end"], 1: bench["per_layer"]}
# Seed-fixed sizes the traced run stamps instead of reporting as metrics.
SIZES = {"http.request_kb": "KB", "persist.wal_records": "count",
         "incremental.replay_tx": "count", "delta.calls": "count",
         "engine.patterns": "count", "export.patterns": "count",
         "index.active": "count", "io.upload_kb": "KB",
         "trace.requests_checked": "count"}
bad = []
for w in (x["name"] for x in bench["workloads"]):
    for trace in (0, 1):
        lines = open(f"{out}/{w}-{trace}.out").read().strip().splitlines()
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            bad.append(f"{w}/{trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            bad.append(f"{w}/{trace}: correct={result['correct']} failed={result['failed']}")
        got = result["metrics"]
        for m in want[trace]:
            if m["name"] not in got:
                bad.append(f"{w}/{trace}: missing {m['name']}")
            elif got[m["name"]]["unit"] != m["unit"]:
                bad.append(f"{w}/{trace}: {m['name']} unit {got[m['name']]['unit']} != {m['unit']}")
        extra = set(got) - {m["name"] for m in want[trace]}
        if extra:
            bad.append(f"{w}/{trace}: undeclared metrics {sorted(extra)}")
        if trace:
            stamped = json.loads(lines[-2])["servebench"]["sizes"]
            for name, unit in SIZES.items():
                if stamped.get(name, {}).get("unit") != unit:
                    bad.append(f"{w}/{trace}: size {name} not stamped with unit {unit}")
if bad:
    print("smoke FAILED:\n  " + "\n  ".join(bad), file=sys.stderr)
    sys.exit(1)
print("servebench smoke: ok (3 workloads x trace 0/1, every declared metric and size emitted with its unit)")
EOF
