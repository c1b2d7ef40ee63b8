#!/usr/bin/env bash
# End-to-end resume check of the three manifest-resumed batches: fig11's
# rate x mapping sweep, the PARSEC suite (fig09) and the CLI sweep.  Each
# runs fresh with checkpoint=, its manifest must carry the pinned
# fingerprint (a changed string orphans every manifest already on disk),
# and a re-run that replays the complete manifest must print the same
# stdout as the fresh run.  Last, the CLI sweep's report= file, fresh and
# replayed, must match test_scenario's "sweep" golden: that pins the real
# CLI running point i at rates[i] with task_seed(seed, i).
#
# Usage: tests/resume_e2e.sh <build_dir>
set -euo pipefail

BUILD="$(cd "$1" && pwd)"
DIR="$(mktemp -d)"
trap 'rm -rf "${DIR}"' EXIT
cd "${DIR}"

# check <name> <fingerprint> <binary> <args...>
check() {
  local name="$1" fp="$2"
  shift 2
  "$@" "checkpoint=${name}.json" > "${name}.fresh"
  if ! grep -qF "\"fingerprint\": \"${fp}\"" "${name}.json"; then
    echo "FAIL ${name}: manifest fingerprint is not '${fp}':" >&2
    grep '"fingerprint"' "${name}.json" >&2 || true
    exit 1
  fi
  "$@" "checkpoint=${name}.json" > "${name}.replay"
  if ! cmp "${name}.fresh" "${name}.replay"; then
    echo "FAIL ${name}: replayed stdout differs from the fresh run" >&2
    diff "${name}.fresh" "${name}.replay" >&2 || true
    exit 1
  fi
  echo "ok   ${name}"
}

check fig11 "fig11:rates=12;samples=1;seed=11;mesh=4x4" \
  "${BUILD}/bench/fig11_synthetic" samples=1
check parsec "parsec-suite:mesh=4x4;n=11;seed=7" \
  "${BUILD}/bench/fig09_net_latency"
check sweep "sweep:n=2;seed=1;rates=0.05,0.1" \
  "${BUILD}/examples/nocsprint_cli" mode=sweep level=8 rates=0.05:0.05:0.1

# test_scenario's report digest: FNV-1a 64 from offset basis
# 1469598103934665603, as 16 hex digits.
scenario_digest() {
  python3 -c '
import sys
h = 1469598103934665603
for b in sys.stdin.buffer.read():
    h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
print("%016x" % h)'
}

# The config of test_scenario's ScenarioGolden.Sweep case.
for pass in fresh replay; do
  "${BUILD}/examples/nocsprint_cli" mode=sweep rates=0.05:0.1:0.45 \
    checkpoint=report_sweep.json "report=report_sweep.${pass}" > /dev/null
  got="$(scenario_digest < "report_sweep.${pass}")"
  if [[ "${got}" != a57a1d35dbf0af41 ]]; then
    echo "FAIL sweep report (${pass}): digest ${got}, test_scenario's" \
         "sweep golden a57a1d35dbf0af41" >&2
    exit 1
  fi
done
echo "ok   sweep report"
