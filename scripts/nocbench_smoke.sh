#!/usr/bin/env bash
# Correctness smoke run of the repository benchmark: every nocbench
# workload for one second (seed 0, untraced).  Fails only when a result
# line reports an incorrect op ("correct": false) or failed ops
# (failed > 0), or when the benchmark produces no result at all.  The
# timings it prints are informational: shared runners are too noisy to
# gate on.
#
# Usage: scripts/nocbench_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
out="$(python3 nocbench/run.py --workload all --seed 0 --seconds 1 --trace 0)"
printf '%s\n' "${out}"
printf '%s\n' "${out}" | python3 -c '
import json, sys
results = [json.loads(line) for line in sys.stdin if line.startswith("{\"correct\"")]
bad = [r for r in results if not r["correct"] or r["failed"] > 0]
if not results or bad:
    print(f"nocbench smoke: {len(results)} result lines, {len(bad)} with "
          "incorrect or failed ops", file=sys.stderr)
    sys.exit(1)
print(f"nocbench smoke: {len(results)} workloads correct, 0 failed ops")
'
