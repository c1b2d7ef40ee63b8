// Figure 4 — execution time of PARSEC benchmarks as the number of
// available cores grows (1..16).
//
// Expected workload classes: blackscholes/bodytrack keep speeding up;
// freqmine is nearly flat (serial); vips/swaptions (and other mid-scalable
// workloads) peak at an intermediate count and then *slow down* from
// scheduling, synchronization, and interconnect-spread overheads.
#include <cstdio>

#include "bench_util.hpp"
#include "cmp/perf_model.hpp"

using namespace nocs;
using namespace nocs::cmp;

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  bench::banner("Figure 4: PARSEC execution time vs available cores",
                "normalized to 1-core execution (calibrated perf model)",
                noc::NetworkParams::from_config(cfg));

  const int n_max = static_cast<int>(cfg.get_int("cores", 16));
  const PerfModel pm(n_max);
  const auto suite = parsec_suite(n_max);

  std::vector<std::string> headers = {"benchmark"};
  for (int n = 1; n <= n_max; n *= 2)
    headers.push_back("T(" + std::to_string(n) + ")");
  headers.push_back("optimal");
  Table t(headers);

  for (const WorkloadParams& w : suite) {
    std::vector<std::string> row = {w.name};
    for (int n = 1; n <= n_max; n *= 2)
      row.push_back(Table::fmt(pm.exec_time(w, n), 3));
    row.push_back(Table::fmt(static_cast<long long>(pm.optimal_level(w))));
    t.add_row(row);
  }
  t.print();

  const auto& fm = find_workload(suite, "freqmine");
  const auto& bs = find_workload(suite, "blackscholes");
  const auto& vp = find_workload(suite, "vips");
  std::printf("\nworkload classes:\n");
  std::printf("  scalable      : blackscholes T(16)=%.3f (keeps improving)\n",
              pm.exec_time(bs, 16));
  std::printf("  serial        : freqmine     T(16)=%.3f (worse than T(1))\n",
              pm.exec_time(fm, 16));
  std::printf("  peak-degrade  : vips         T(%d)=%.3f < T(16)=%.3f\n",
              pm.optimal_level(vp), pm.exec_time(vp, pm.optimal_level(vp)),
              pm.exec_time(vp, 16));
  return 0;
}
