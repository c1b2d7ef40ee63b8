// Figure 7 — execution time under the three sprint mechanisms.
//
// Paper result: NoC-sprinting achieves 3.6x average speedup over
// non-sprinting; full-sprinting only 1.9x because over-parallelized
// workloads pay scheduling/synchronization/interconnect overheads.
#include <cstdio>

#include "bench_util.hpp"
#include "cmp/perf_model.hpp"
#include "common/stats.hpp"
#include "power/chip_power.hpp"
#include "sprint/sprint_controller.hpp"
#include "thermal/pcm.hpp"

using namespace nocs;
using namespace nocs::cmp;
using namespace nocs::sprint;

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  const noc::NetworkParams net = noc::NetworkParams::from_config(cfg);
  bench::banner("Figure 7: execution time per sprinting scheme",
                "non-sprinting (1 core) vs full-sprinting (16) vs "
                "NoC-sprinting (optimal level)",
                net);

  const MeshShape mesh = net.shape();
  const PerfModel pm(mesh.size());
  const power::ChipPowerModel chip(power::ChipPowerParams{});
  const thermal::PcmModel pcm{thermal::PcmParams{}};
  const SprintController ctl(mesh, pm, chip, pcm);

  const auto suite = parsec_suite(mesh.size());
  Table t({"benchmark", "T non-sprint", "T full-sprint", "T noc-sprint",
           "level", "speedup full", "speedup noc"});
  std::vector<double> full_speedups, noc_speedups;
  for (const WorkloadParams& w : suite) {
    const SprintPlan non = ctl.plan(w, SprintMode::kNonSprinting);
    const SprintPlan full = ctl.plan(w, SprintMode::kFullSprinting);
    const SprintPlan noc = ctl.plan(w, SprintMode::kNocSprinting);
    full_speedups.push_back(full.speedup);
    noc_speedups.push_back(noc.speedup);
    t.add_row({w.name, Table::fmt(non.exec_time, 3),
               Table::fmt(full.exec_time, 3), Table::fmt(noc.exec_time, 3),
               Table::fmt(static_cast<long long>(noc.level)),
               Table::fmt(full.speedup, 2), Table::fmt(noc.speedup, 2)});
  }
  t.print();

  bench::headline("average speedup (NoC-sprinting vs full-sprinting)",
                  "3.6x vs 1.9x",
                  Table::fmt(arithmetic_mean(noc_speedups), 2) + "x vs " +
                      Table::fmt(arithmetic_mean(full_speedups), 2) + "x");
  return 0;
}
