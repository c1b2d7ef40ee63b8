// Figure 1 — the sprint temperature timeline.
//
// Regenerates the paper's concept figure quantitatively from the PCM
// model: temperature rises from ambient when the sprint starts (phase 1),
// plateaus at T_melt while the phase-change material absorbs the excess
// heat (phase 2), rises again to T_max where all but one core terminate
// (phase 3).  Printed for full-sprinting and for dedup's 4-core
// NoC-sprint so the phase stretching is visible.
#include <cstdio>

#include "bench_util.hpp"
#include "cmp/perf_model.hpp"
#include "power/chip_power.hpp"
#include "sprint/sprint_controller.hpp"
#include "thermal/pcm.hpp"

using namespace nocs;
using namespace nocs::thermal;

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  const noc::NetworkParams net = noc::NetworkParams::from_config(cfg);
  bench::banner("Figure 1: sprint temperature timeline (PCM model)",
                "phase 1 heat-up, phase 2 melt plateau, phase 3 heat-up to "
                "Tmax; full-sprinting vs dedup's 4-core NoC-sprint",
                net);

  const MeshShape mesh = net.shape();
  const cmp::PerfModel perf(mesh.size());
  const power::ChipPowerModel chip{power::ChipPowerParams{}};
  const PcmParams pcm_params{};
  const PcmModel pcm(pcm_params);
  const sprint::SprintController ctl(mesh, perf, chip, pcm);

  const auto suite = cmp::parsec_suite(mesh.size());
  const auto& dedup = cmp::find_workload(suite, "dedup");
  const auto full = ctl.plan(dedup, sprint::SprintMode::kFullSprinting);
  const auto noc = ctl.plan(dedup, sprint::SprintMode::kNocSprinting);

  const SprintTimeline tl_full = pcm.sprint_timeline(full.chip_power);
  const SprintTimeline tl_noc = pcm.sprint_timeline(noc.chip_power);

  Table phases({"scheme", "power (W)", "phase1 (s)", "phase2 melt (s)",
                "phase3 (s)", "total sprint (s)"});
  phases.add_row({"full-sprinting", Table::fmt(full.chip_power, 1),
                  Table::fmt(tl_full.phase1, 3), Table::fmt(tl_full.phase2, 3),
                  Table::fmt(tl_full.phase3, 3),
                  Table::fmt(tl_full.total(), 3)});
  phases.add_row({"noc-sprinting (dedup, 4)", Table::fmt(noc.chip_power, 1),
                  Table::fmt(tl_noc.phase1, 3), Table::fmt(tl_noc.phase2, 3),
                  Table::fmt(tl_noc.phase3, 3),
                  Table::fmt(tl_noc.total(), 3)});
  phases.print();

  std::printf("\ntemperature trajectory (K) sampled every 0.25 s:\n");
  Table t({"t (s)", "full-sprinting", "noc-sprinting"});
  const double horizon = tl_noc.total() * 1.05;
  for (double time = 0.0; time <= horizon; time += 0.25) {
    t.add_row({Table::fmt(time, 2),
               Table::fmt(pcm.temperature_at(full.chip_power, time), 1),
               Table::fmt(pcm.temperature_at(noc.chip_power, time), 1)});
  }
  t.print();

  bench::headline(
      "melt plateau", "temperature constant at T_melt during phase 2",
      "plateau at " + Table::fmt(pcm_params.t_melt, 0) + " K visible in "
      "both columns; NoC-sprinting holds it " +
          Table::fmt(tl_noc.phase2 / tl_full.phase2, 1) + "x longer");
  return 0;
}
