#!/usr/bin/env bash
# Full build-and-test matrix: a Release build (what the benches and
# figures run as) and an AddressSanitizer build (guards the ring-buffer /
# calendar-wheel index arithmetic, the fault/retransmission paths, the
# serve daemon's sockets and ledger, the memory-traffic queues and the
# topology index arithmetic), each running the complete ctest suite —
# every label (golden, snapshot, serve, mem, topology, ...) included, so
# no label is re-run on its own — plus a ThreadSanitizer build running
# the `parallel` and `serve` labels (the sharded barrier-synchronous tick,
# the sweep thread pool, the scheduler), the topology example lint, and
# the campaign-daemon crash-recovery smoke test (scripts/serve_smoke.sh:
# kill -9, restart, bit-compare).  Right after the Release tests, the
# repository benchmark's smoke run (scripts/nocbench_smoke.sh) builds the
# benchmark driver against the library API and fails on any incorrect or
# failed op.
#
# Usage: scripts/ci.sh [jobs]        (default: all cores)
#
# Exits non-zero on the first failing configure/build/test step.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_config() {
  local dir="$1"
  shift
  echo "==== configure ${dir} ($*) ===="
  cmake -B "${dir}" -S . "$@" >/dev/null
  echo "==== build ${dir} ===="
  cmake --build "${dir}" -j "${JOBS}"
  echo "==== test ${dir} ===="
  ctest --test-dir "${dir}" -j "${JOBS}" --output-on-failure
}

# As run_config but only runs the tests carrying a ctest label (used for
# the ThreadSanitizer build, where the full suite would be needlessly
# slow — TSan only adds signal on the multi-threaded surface).
run_config_label() {
  local dir="$1" label="$2"
  shift 2
  echo "==== configure ${dir} ($*) ===="
  cmake -B "${dir}" -S . "$@" >/dev/null
  echo "==== build ${dir} ===="
  cmake --build "${dir}" -j "${JOBS}"
  echo "==== test ${dir} (-L ${label}) ===="
  ctest --test-dir "${dir}" -L "${label}" --output-on-failure
}

echo "==== docs checks ===="
scripts/check_docs_links.sh
scripts/check_config_docs.sh

run_config build-ci-release -DCMAKE_BUILD_TYPE=Release

echo "==== benchmark smoke test ===="
scripts/nocbench_smoke.sh

run_config build-ci-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNOCS_SANITIZE=address
# serve rides along under TSan: the scheduler's preemption, watch
# streaming, and progress atomics are thread-heavy by construction.
run_config_label build-ci-tsan 'parallel|serve' \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNOCS_SANITIZE=thread

# The shipped topology example files must parse and be deadlock-free at
# every sprint level (docs/TOPOLOGY.md stays executable documentation).
echo "==== topology example lint ===="
scripts/check_topo_examples.sh build-ci-release

echo "==== serve crash-recovery smoke test ===="
scripts/serve_smoke.sh build-ci-release

echo "==== ci.sh: all configurations passed ===="
