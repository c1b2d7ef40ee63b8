// Ablation (extension) — thermal-aware sprint rotation.
//
// Repeated bursts sprinting the *same* corner accumulate heat there;
// rotating the master to the coolest corner before each burst (possible
// because CDOR handles any corner by reflection) spreads the heat load in
// *time* the way the Algorithm 3/4 floorplan spreads it in *space*.  We
// replay a burst train through the transient thermal solver and compare
// the running peak temperature.
#include <cstdio>

#include "bench_util.hpp"
#include "sprint/rotation.hpp"

using namespace nocs;
using namespace nocs::sprint;

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  const noc::NetworkParams net = noc::NetworkParams::from_config(cfg);
  bench::banner("Ablation (extension): thermal-aware sprint rotation",
                "burst train, fixed corner vs coolest-corner master; "
                "transient FD thermal solver",
                net);

  const int bursts = static_cast<int>(cfg.get_int("bursts", 8));
  const int level = static_cast<int>(cfg.get_int("level", 4));
  const double sprint_s = cfg.get_double("sprint_s", 0.3);
  const double idle_s = cfg.get_double("idle_s", 0.3);

  const MeshShape mesh = net.shape();
  thermal::GridThermalParams gp{};
  // Include the spreader/PCM mass in the distributed heat capacity so the
  // thermal time constant (~0.7 s) exceeds the burst period and heat
  // actually accumulates across bursts (the regime rotation targets).
  gp.c_per_area = 16500.0;
  const power::ChipPowerParams chip{};

  std::printf("%d bursts of level-%d sprinting, %.1f s sprint + %.1f s "
              "cool-down each\n\n",
              bursts, level, sprint_s, idle_s);

  Table t({"burst", "fixed master", "fixed peak (K)", "rotated master",
           "rotated peak (K)", "delta (K)"});
  SprintRotationSim fixed(mesh, gp, chip, 12.0);
  SprintRotationSim rotated(mesh, gp, chip, 12.0);
  double final_delta = 0.0;
  for (int b = 0; b < bursts; ++b) {
    const auto f = fixed.run_burst(level, sprint_s, idle_s, false);
    const auto r = rotated.run_burst(level, sprint_s, idle_s, true);
    final_delta = r.peak_after - f.peak_after;
    t.add_row({Table::fmt(static_cast<long long>(b)),
               Table::fmt(static_cast<long long>(f.master)),
               Table::fmt(f.peak_after, 2),
               Table::fmt(static_cast<long long>(r.master)),
               Table::fmt(r.peak_after, 2), Table::fmt(final_delta, 2)});
  }
  t.print();

  bench::headline(
      "rotation vs fixed corner (final burst peak)",
      "extension: cooler peaks by spreading heat in time",
      Table::fmt(final_delta, 2) + " K (negative = rotation cooler)");
  return 0;
}
