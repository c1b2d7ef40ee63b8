#!/usr/bin/env bash
# Figure goldens and the figure perf record.
#
# Runs every paper-figure binary (bench/fig*, bench/ablation_*, cdor_area,
# sprint_duration) and the deterministic examples (quickstart, fault_storm,
# online_adaptation, bursty_server) at their defaults, each under
# NOCS_THREADS=1 with NOCS_SIM_THREADS=1 and again with NOCS_SIM_THREADS=4.
# The FNV-1a 64 digest of each stdout must equal its line in
# tests/golden/figures.txt at both settings: a refactor that changes any
# printed figure fails here.  The wall time of every run goes to a JSON
# perf record (default BENCH_noc.json in the current directory) next to
# the host's core count, load average and commit.
#
# Usage:       scripts/figures.sh [build_dir] [perf_json]
#              (build_dir defaults to build; ctest -C figures -L figures
#              runs it against the ctest build tree)
# Regenerate:  NOCS_GOLDEN_PRINT=1 scripts/figures.sh build \
#                > tests/golden/figures.txt
#              prints the digest lines instead of checking them and
#              writes no perf record.
#              Regenerating means a figure moved on purpose: record why in
#              CHANGES.md.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$(cd "${1:-${ROOT}/build}" && pwd)"
PERF_JSON="${2:-BENCH_noc.json}"
GOLDEN="${ROOT}/tests/golden/figures.txt"

BINARIES=()
for b in "${BUILD}"/bench/fig* "${BUILD}"/bench/ablation_*; do
  [[ -x "${b}" && -f "${b}" ]] && BINARIES+=("bench/$(basename "${b}")")
done
BINARIES+=(bench/cdor_area bench/sprint_duration examples/quickstart
           examples/fault_storm examples/online_adaptation
           examples/bursty_server)

# FNV-1a 64 over the bytes of stdin, as 16 hex digits.
fnv1a() {
  python3 -c '
import sys
h = 0xcbf29ce484222325
for b in sys.stdin.buffer.read():
    h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
print("%016x" % h)'
}

now() { date +%s%N; }

OUT="$(mktemp -d)"
trap 'rm -rf "${OUT}"' EXIT

failed=0
timings=()
[[ -n "${NOCS_GOLDEN_PRINT:-}" ]] &&
  echo "# <binary> <FNV-1a 64 of its stdout>; regenerate with" \
       "NOCS_GOLDEN_PRINT=1 scripts/figures.sh build > tests/golden/figures.txt"
for bin in "${BINARIES[@]}"; do
  name="$(basename "${bin}")"
  digests=()
  for st in 1 4; do
    t0="$(now)"
    if ! (cd "${OUT}" && NOCS_THREADS=1 NOCS_SIM_THREADS="${st}" \
          "${BUILD}/${bin}" > "${OUT}/stdout"); then
      echo "FAIL ${name} (sim_threads=${st}): exited non-zero" >&2
      failed=1
    fi
    t1="$(now)"
    ms=$(( (t1 - t0) / 1000000 ))
    timings+=("$(printf '"%s.sim%d_s": %d.%03d' "${name}" "${st}" \
                 $(( ms / 1000 )) $(( ms % 1000 )))")
    digests+=("$(fnv1a < "${OUT}/stdout")")
  done
  if [[ -n "${NOCS_GOLDEN_PRINT:-}" ]]; then
    echo "${name} ${digests[0]}"
    [[ "${digests[0]}" == "${digests[1]}" ]] ||
      echo "sim_threads=4 differs for ${name}: ${digests[1]}" >&2
    continue
  fi
  want="$(grep -E "^${name} " "${GOLDEN}" | cut -d' ' -f2 || true)"
  for i in 0 1; do
    st=$(( i == 0 ? 1 : 4 ))
    if [[ "${digests[i]}" != "${want}" ]]; then
      echo "FAIL ${name} (sim_threads=${st}): stdout digest ${digests[i]}," \
           "golden ${want:-<none>}" >&2
      failed=1
    fi
  done
  [[ "${digests[0]}" == "${want}" && "${digests[1]}" == "${want}" ]] &&
    echo "ok   ${name}"
done

# In check mode: a golden line whose binary is no longer built is a figure
# gone missing, and the wall times go to the perf record.
if [[ -z "${NOCS_GOLDEN_PRINT:-}" ]]; then
  while read -r name _; do
    [[ -z "${name}" || "${name}" == \#* ]] && continue
    if [[ " ${BINARIES[*]##*/} " != *" ${name} "* ]]; then
      echo "FAIL ${name}: in ${GOLDEN##*/} but not in ${BUILD}" >&2
      failed=1
    fi
  done < "${GOLDEN}"

  commit="$(git -C "${ROOT}" describe --always --dirty 2>/dev/null ||
            echo unknown)"
  {
    echo "{"
    printf '  "host.nproc": %d,\n' "$(nproc)"
    printf '  "host.loadavg": "%s",\n' "$(cut -d' ' -f1-3 /proc/loadavg)"
    printf '  "host.commit": "%s",\n' "${commit}"
    printf '  "nocs_threads": 1,\n'
    for i in "${!timings[@]}"; do
      sep=","
      (( i + 1 == ${#timings[@]} )) && sep=""
      printf '  %s%s\n' "${timings[i]}" "${sep}"
    done
    echo "}"
  } > "${PERF_JSON}"
  echo "wall times written to ${PERF_JSON}"
fi

if (( failed )); then
  echo "figures.sh: digest mismatch or failed run (see above)" >&2
  exit 1
fi
