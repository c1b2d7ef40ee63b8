// Figure 8 — core power dissipation per sprinting scheme.
//
// Paper result: vs full-sprinting, naive fine-grained sprinting (optimal
// core count but idle cores left un-gated) saves 25.5 % core power on
// average; NoC-sprinting (gated) saves 69.1 %.  blackscholes/bodytrack
// sprint all 16 cores, so they leave no gating headroom.
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
  bench::banner("Figure 8: core power dissipation per sprinting scheme",
                "full vs fine-grained (idle, no gating) vs NoC-sprinting "
                "(dark cores gated)",
                net);

  const MeshShape mesh = net.shape();
  const PerfModel pm(mesh.size());
  const power::ChipPowerModel chip(power::ChipPowerParams{});
  const thermal::PcmModel pcm{thermal::PcmParams{}};
  const SprintController ctl(mesh, pm, chip, pcm);

  const auto suite = parsec_suite(mesh.size());
  Table t({"benchmark", "level", "full (W)", "fine-grained (W)",
           "noc-sprint (W)", "fg saving", "noc saving"});
  std::vector<double> fg_savings, noc_savings;
  for (const WorkloadParams& w : suite) {
    const SprintPlan full = ctl.plan(w, SprintMode::kFullSprinting);
    const SprintPlan fg = ctl.plan(w, SprintMode::kFineGrained);
    const SprintPlan noc = ctl.plan(w, SprintMode::kNocSprinting);
    const double fg_save = 1.0 - fg.core_power / full.core_power;
    const double noc_save = 1.0 - noc.core_power / full.core_power;
    fg_savings.push_back(fg_save);
    noc_savings.push_back(noc_save);
    t.add_row({w.name, Table::fmt(static_cast<long long>(noc.level)),
               Table::fmt(full.core_power, 1), Table::fmt(fg.core_power, 1),
               Table::fmt(noc.core_power, 1), Table::pct(fg_save),
               Table::pct(noc_save)});
  }
  t.print();

  bench::headline("average core power saving vs full-sprinting",
                  "fine-grained 25.5%, NoC-sprinting 69.1%",
                  "fine-grained " +
                      Table::pct(arithmetic_mean(fg_savings)) +
                      ", NoC-sprinting " +
                      Table::pct(arithmetic_mean(noc_savings)));
  return 0;
}
