// Figure 12 — steady-state heat maps for dedup (optimal sprint level 4).
//
// Paper result (HotSpot, McPAT power densities, 16 blocks on a 2-D grid):
//   (a) full-sprinting: uniform power but an overheated center, 358.3 K;
//   (b) fine-grained 4-core sprint (top-left region): peak 347.79 K;
//   (c) + thermal-aware floorplanning: peak 343.81 K.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "power/chip_power.hpp"
#include "sprint/floorplanner.hpp"
#include "sprint/topology.hpp"
#include "thermal/grid.hpp"

using namespace nocs;
using namespace nocs::thermal;

namespace {

std::vector<Watts> node_powers(const MeshShape& mesh,
                               const std::vector<NodeId>& active,
                               const power::ChipPowerParams& p) {
  std::vector<Watts> powers(
      static_cast<std::size_t>(mesh.size()),
      p.core_gated + p.l2_tile + p.noc_gated_node);
  for (NodeId id : active)
    powers[static_cast<std::size_t>(id)] =
        p.core_active + p.l2_tile + p.noc_per_node;
  return powers;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  const noc::NetworkParams net = noc::NetworkParams::from_config(cfg);
  bench::banner("Figure 12: steady-state heat maps (dedup, level 4)",
                "full-sprinting vs fine-grained vs thermal-aware floorplan "
                "(HotSpot-style FD grid solver)",
                net);

  const MeshShape mesh = net.shape();
  const double die_mm = cfg.get_double("die_mm", 12.0);
  const power::ChipPowerParams chip{};
  const GridThermalParams gp{};
  const GridThermalModel model(gp, die_mm, die_mm);

  const std::vector<NodeId> all = mesh.all_nodes();
  const std::vector<NodeId> four = sprint::active_set(mesh, 4, 0);
  const auto identity = sprint::identity_floorplan(mesh).positions;
  const auto remapped = sprint::thermal_aware_floorplan(mesh, 0).positions;

  struct Case {
    const char* name;
    const char* paper;
    std::vector<NodeId> active;
    std::vector<int> positions;
  };
  const Case cases[] = {
      {"(a) full-sprinting (16 cores)", "358.30 K", all, identity},
      {"(b) fine-grained 4-core sprint", "347.79 K", four, identity},
      {"(c) 4-core + thermal floorplan", "343.81 K", four, remapped},
  };

  Table t({"configuration", "power (W)", "peak (K)", "avg (K)",
           "paper peak"});
  std::vector<Kelvin> peaks;
  std::vector<std::string> maps;
  for (const Case& c : cases) {
    const Floorplan fp = make_cmp_floorplan(
        mesh, die_mm, die_mm, node_powers(mesh, c.active, chip),
        c.positions);
    const TemperatureField field = model.solve_steady(fp);
    peaks.push_back(field.peak());
    maps.push_back(std::string(c.name) + "\n" +
                   render_heatmap(field, 32, 16));
    t.add_row({c.name, Table::fmt(fp.total_power(), 1),
               Table::fmt(field.peak(), 2), Table::fmt(field.average(), 2),
               c.paper});
  }
  t.print();

  std::printf("\n");
  for (const std::string& m : maps) std::printf("%s\n", m.c_str());

  bench::headline(
      "peak temperature ordering",
      "full > fine-grained > floorplanned (358.3 / 347.8 / 343.8 K)",
      Table::fmt(peaks[0], 1) + " > " + Table::fmt(peaks[1], 1) + " > " +
          Table::fmt(peaks[2], 1) + " K");
  return 0;
}
