#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark driver from source, runs one
workload and prints the result.

    python3 nocbench/run.py --workload dense_mesh16 --seed 1 --seconds 10 --trace 0

Workloads: dense_mesh16, sprint_levels8, sharded_mesh32 (``all`` runs each
in turn).  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics from a traced run.  The human-readable
report comes first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run from the root of a checkout; see nocbench/README.md.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "nocbench"
DIGESTS = BENCH_DIR / "digests.json"
WORKLOADS = ("dense_mesh16", "sprint_levels8", "sharded_mesh32")
TIME_LIMIT_S = 160  # a run, build check included, must end within 180 s
LAYERS = ("noc", "parallel", "sprint", "power", "thermal", "mem", "bench")


class BenchError(Exception):
    pass


def build():
    """Configures (once) and builds the optimised driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        shutil.rmtree(BUILD_DIR)  # configured for another checkout
        BUILD_DIR.mkdir(parents=True)
    log_path = BUILD_DIR.parent / "nocbench-build.log"
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "nocbench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return BUILD_DIR / "nocbench"


def recorded_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def run_driver(binary, workload, seed, seconds, trace, deadline):
    """Runs the driver once and returns its JSON document."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    expected = recorded_digests().get(workload, {}).get(str(seed))
    if expected:
        cmd += ["--expect-digest", expected]
    if trace:
        trace_dir = BUILD_DIR.parent / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{workload}-seed{seed}.json")]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: driver did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: driver exited with code {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["recorded"] = expected is not None
    return doc


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def result_line(doc, trace):
    """The benchmark's result object: the declared metrics, checked."""
    produced = doc["per_layer" if trace else "end_to_end"]
    metrics, problems = {}, []
    for m in declared_metrics(trace):
        got = produced.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} unit {got['unit']} != {m['unit']}")
        elif not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']} is not finite")
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = doc["ops_failed"] == 0 and not doc["failures"] and not problems
    return {"correct": correct, "attempted": doc["ops"], "failed": doc["ops_failed"],
            "metrics": metrics}, problems


def report(doc, trace):
    h = doc["host"]
    print(f"nocbench {doc['workload']} seed={doc['seed']} trace={trace}")
    print(f"host: nproc={h['nproc']} loadavg_1min={h['loadavg_1min_start']:.2f}"
          f"->{h['loadavg_1min_end']:.2f} compiler={h['compiler']}"
          f" build_type={h['build_type']} ipo={'on' if h['ipo'] else 'off'}"
          f" sim_threads={h['sim_threads']}")
    if not h["optimized"] or h["build_type"] not in ("Release", "RelWithDebInfo"):
        print("WARNING: the driver build is not optimised; host timings are meaningless")
    source = "recorded" if doc["recorded"] else "first op"
    print(f"ops: {doc['ops']} attempted, {doc['ops_failed']} failed;"
          f" digest {doc['digest']} (checked against {source})")
    if "serial_digest" in doc:
        print(f"serial digest {doc['serial_digest']}")
    for f in doc["failures"]:
        print(f"FAIL {f}")
    for title, key in (("end-to-end", "end_to_end"), ("per-layer", "per_layer")):
        note = " (mixes traced and untraced ops)" if trace and key == "end_to_end" else ""
        print(f"{title}{note}:")
        for name, m in doc[key].items():
            print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    if trace:
        pl = doc["per_layer"]
        print("self time per op (traced ops):")
        for layer in LAYERS:
            print(f"  {layer:10s} {pl[layer + '.self_s']['value']:12.6f} s"
                  f"  {100 * pl[layer + '.share']['value']:6.2f} %")
        print("tracing overhead: traced - untraced cycles_per_s = "
              f"{pl['trace.cycles_per_s_delta']['value']:.6g} 1/s")


def record_digest(doc):
    table = recorded_digests()
    table.setdefault(doc["workload"], {})[str(doc["seed"])] = doc["digest"]
    ordered = {w: dict(sorted(table[w].items(), key=lambda kv: int(kv[0])))
               for w in sorted(table)}
    DIGESTS.write_text(json.dumps(ordered, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digest", action="store_true",
                    help="store this run's op digest in digests.json")
    args = ap.parse_args()
    try:
        binary = build()
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            doc = run_driver(binary, workload, args.seed, args.seconds, args.trace,
                             time.monotonic() + TIME_LIMIT_S)
            result, problems = result_line(doc, args.trace)
            report(doc, args.trace)
            for p in problems:
                print(f"FAIL {p}")
            if args.record_digest and result["correct"]:
                record_digest(doc)
            print(json.dumps(result))
    except BenchError as e:
        print(f"nocbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
