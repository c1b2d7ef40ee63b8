// Section 4.4 — sprint duration under the PCM model.
//
// Paper result: by allocating just enough power for the maximal speedup,
// NoC-sprinting slows thermal-capacitance depletion and lengthens the
// melting phase, increasing sprint duration by 55.4 % on average over
// full-sprinting (unsustainable-power benchmarks only; workloads whose
// optimal level is low enough to be thermally sustainable sprint
// indefinitely and are reported at the cap).
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
  bench::banner("Section 4.4: sprint duration (PCM model)",
                "phase1 heat-up + phase2 melt + phase3 heat-up to Tmax; "
                "full-sprinting vs NoC-sprinting chip power",
                net);

  const MeshShape mesh = net.shape();
  const PerfModel pm(mesh.size());
  const power::ChipPowerModel chip(power::ChipPowerParams{});
  const thermal::PcmParams pcm_params{};
  const thermal::PcmModel pcm(pcm_params);
  const Seconds cap = cfg.get_double("cap", 10.0);
  const SprintController ctl(mesh, pm, chip, pcm, 0, cap);

  std::printf("PCM: melt %.0f K, Tmax %.0f K, latent budget %.1f J, "
              "sustainable-at-melt %.1f W\n\n",
              pcm_params.t_melt, pcm_params.t_max, pcm_params.latent_budget(),
              pcm_params.sustainable_at_melt());

  Table t({"benchmark", "level", "full power (W)", "noc power (W)",
           "full dur (s)", "noc dur (s)", "gain"});
  std::vector<double> gains;
  for (const WorkloadParams& w : parsec_suite(mesh.size())) {
    const SprintPlan full = ctl.plan(w, SprintMode::kFullSprinting);
    const SprintPlan noc = ctl.plan(w, SprintMode::kNocSprinting);
    const bool capped = noc.sprint_duration >= cap;
    const double gain = noc.sprint_duration / full.sprint_duration - 1.0;
    if (!capped) gains.push_back(gain);
    t.add_row({w.name, Table::fmt(static_cast<long long>(noc.level)),
               Table::fmt(full.chip_power, 1), Table::fmt(noc.chip_power, 1),
               Table::fmt(full.sprint_duration, 3),
               capped ? ">" + Table::fmt(cap, 0)
                      : Table::fmt(noc.sprint_duration, 3),
               capped ? "sustainable" : Table::pct(gain)});
  }
  t.print();

  bench::headline("average sprint-duration gain (non-sustainable workloads)",
                  "+55.4%", "+" + Table::pct(arithmetic_mean(gains)));
  return 0;
}
