#!/usr/bin/env bash
# Interleaved A/B comparison of the repository benchmark between two
# commits.
#
# Usage: scripts/ab.sh A B workload pairs [seconds] [seed]
#
#   A, B      any git revisions (commit, branch, tag, HEAD~1, ...)
#   workload  dense_mesh16 | sprint_levels8 | sharded_mesh32 | all
#   pairs     number of A/B run pairs per workload
#   seconds   length of each nocbench run (default 20, BENCHMARK.json's
#             run_seconds)
#   seed      nocbench seed shared by every run (default 1)
#
# Checks both revisions out as detached `git worktree`s in a temporary
# directory (under $TMPDIR, default /tmp; removed on exit), builds the
# nocbench driver in each with one short warm-up run, then runs
# `python3 nocbench/run.py --trace 0` alternately: A then B in even
# pairs, B then A in odd ones, so drift in host load hits both sides
# alike.  For every end-to-end metric of BENCHMARK.json it prints A's and
# B's median [Q1, Q3], the change of the medians, the pairs B won (in the
# metric's "better" direction; ties count for neither side), whether the
# medians differ by more than A's interquartile range, and whether the
# change is worse than the metric's bound.  Those columns are
# informational: the exit status does not depend on them.
#
# Exits non-zero when a build or run fails, when any run reports an
# incorrect result or a failed op, or when A and B disagree on the op
# digest of a pair (the simulated outputs moved).
set -euo pipefail

if [[ $# -lt 4 || $# -gt 6 ]]; then
  sed -n '4,12p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
REV_A="$1"
REV_B="$2"
WORKLOAD="$3"
PAIRS="$4"
SECONDS_PER_RUN="${5:-20}"
SEED="${6:-1}"

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "${ROOT}"
SHA_A="$(git rev-parse --verify "${REV_A}^{commit}")"
SHA_B="$(git rev-parse --verify "${REV_B}^{commit}")"
case "${WORKLOAD}" in
  all) WORKLOADS=(dense_mesh16 sprint_levels8 sharded_mesh32) ;;
  dense_mesh16 | sprint_levels8 | sharded_mesh32) WORKLOADS=("${WORKLOAD}") ;;
  *) echo "ab.sh: unknown workload ${WORKLOAD}" >&2; exit 2 ;;
esac
[[ "${PAIRS}" =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: pairs must be >= 1" >&2; exit 2; }

WORK="$(mktemp -d "${TMPDIR:-/tmp}/nocs-ab.XXXXXX")"
cleanup() {
  git -C "${ROOT}" worktree remove --force "${WORK}/a" 2>/dev/null || true
  git -C "${ROOT}" worktree remove --force "${WORK}/b" 2>/dev/null || true
  git -C "${ROOT}" worktree prune
  rm -rf "${WORK}"
}
trap cleanup EXIT

git worktree add --detach --quiet "${WORK}/a" "${SHA_A}"
git worktree add --detach --quiet "${WORK}/b" "${SHA_B}"
echo "A = ${REV_A} (${SHA_A:0:10})   B = ${REV_B} (${SHA_B:0:10})"
echo "host: nproc=$(nproc) loadavg=$(cut -d' ' -f1-3 /proc/loadavg)"
echo "${PAIRS} interleaved pairs of ${SECONDS_PER_RUN}-s runs, seed ${SEED}"

# One run: the report goes to its own log, and one line "side pair digest
# result-object" to the workload's results file.
run_one() {
  local side="$1" pair="$2" workload="$3" results="$4"
  local dir="${WORK}/${side}" log="${WORK}/${workload}.${side}.${pair}.log"
  if ! (cd "${dir}" && python3 nocbench/run.py --workload "${workload}" \
          --seed "${SEED}" --seconds "${SECONDS_PER_RUN}" --trace 0) \
       > "${log}"; then
    echo "ab.sh: ${side} run ${pair} of ${workload} failed:" >&2
    tail -n 20 "${log}" >&2
    exit 1
  fi
  local digest
  digest="$(sed -n 's/^ops: .* digest \([0-9a-f]*\) .*/\1/p' "${log}")"
  printf '%s %s %s %s\n' "${side}" "${pair}" "${digest:-none}" \
    "$(tail -n 1 "${log}")" >> "${results}"
}

status=0
for workload in "${WORKLOADS[@]}"; do
  results="${WORK}/${workload}.results"
  : > "${results}"
  for side in a b; do  # builds the driver; the warm-up result is dropped
    (cd "${WORK}/${side}" && python3 nocbench/run.py --workload "${workload}" \
       --seed "${SEED}" --seconds 0.01 --trace 0) > "${WORK}/build.${side}.log" \
      || { echo "ab.sh: ${side} build/warm-up failed" >&2;
           tail -n 30 "${WORK}/build.${side}.log" >&2; exit 1; }
  done
  for ((i = 0; i < PAIRS; ++i)); do
    if ((i % 2 == 0)); then order=(a b); else order=(b a); fi
    for side in "${order[@]}"; do run_one "${side}" "${i}" "${workload}" "${results}"; done
  done
  echo
  python3 - "${ROOT}/BENCHMARK.json" "${workload}" "${results}" <<'PY' || status=1
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
workload = sys.argv[2]
runs = {"a": {}, "b": {}}
for line in open(sys.argv[3]):
    side, pair, digest, doc = line.split(" ", 3)
    runs[side][int(pair)] = (digest, json.loads(doc))
pairs = sorted(runs["a"])

bad = []
for p in pairs:
    for side in "ab":
        digest, doc = runs[side][p]
        if not doc["correct"] or doc["failed"] > 0:
            bad.append(f"pair {p} {side.upper()}: correct={doc['correct']} "
                       f"failed={doc['failed']}/{doc['attempted']}")
    if runs["a"][p][0] != runs["b"][p][0]:
        bad.append(f"pair {p}: digest A {runs['a'][p][0]} != B {runs['b'][p][0]}")


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


print(f"{workload}: {len(pairs)} pairs")
print(f"  {'metric':24s} {'A median [Q1, Q3]':>32s} {'B median [Q1, Q3]':>32s}"
      f" {'change':>8s} {'B wins':>7s} {'>IQR(A)':>7s}  bound")
for m in spec["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    a = [runs["a"][p][1]["metrics"][name]["value"] for p in pairs]
    b = [runs["b"][p][1]["metrics"][name]["value"] for p in pairs]
    qa, qb = quartiles(a), quartiles(b)
    change = (qb[1] - qa[1]) / qa[1] if qa[1] != 0 else 0.0
    wins = sum(1 for x, y in zip(a, b) if (y > x if higher else y < x))
    # The medians differ by more than the spread of A's own runs?
    beyond = "yes" if abs(qb[1] - qa[1]) > qa[2] - qa[0] else "no"
    worse = -change if higher else change
    verdict = (f"worse than {m['bound']:.0%}" if worse > m["bound"]
               else f"within {m['bound']:.0%}")
    fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    print(f"  {name:24s} {fmt(qa):>32s} {fmt(qb):>32s} {change:+8.1%}"
          f" {wins:>3d}/{len(pairs):<3d} {beyond:>7s}  {verdict}")
for b in bad:
    print(f"  FAIL {b}")
sys.exit(1 if bad else 0)
PY
done
exit "${status}"
