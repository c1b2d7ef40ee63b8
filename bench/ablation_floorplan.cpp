// Ablation — thermal-aware floorplanning (Algorithms 3/4) across sprint
// levels: peak steady-state temperature and heat-concentration proxy with
// and without the remapping, plus the wiring-length cost it incurs.
#include <cstdio>

#include "bench_util.hpp"
#include "power/chip_power.hpp"
#include "sprint/floorplanner.hpp"
#include "sprint/topology.hpp"
#include "thermal/grid.hpp"

using namespace nocs;
using namespace nocs::sprint;
using namespace nocs::thermal;

namespace {

Kelvin peak_temp(const MeshShape& mesh, const std::vector<NodeId>& active,
                 const std::vector<int>& positions, double die_mm,
                 const GridThermalModel& model,
                 const power::ChipPowerParams& chip) {
  std::vector<Watts> powers(
      static_cast<std::size_t>(mesh.size()),
      chip.core_gated + chip.l2_tile + chip.noc_gated_node);
  for (NodeId id : active)
    powers[static_cast<std::size_t>(id)] =
        chip.core_active + chip.l2_tile + chip.noc_per_node;
  const Floorplan fp =
      make_cmp_floorplan(mesh, die_mm, die_mm, powers, positions);
  return model.solve_steady(fp).peak();
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  const noc::NetworkParams net = noc::NetworkParams::from_config(cfg);
  bench::banner("Ablation: thermal-aware floorplanning across sprint levels",
                "identity vs Algorithm 3/4 placement: peak temperature, "
                "heat concentration, wire length",
                net);

  const MeshShape mesh = net.shape();
  const double die_mm = cfg.get_double("die_mm", 12.0);
  const power::ChipPowerParams chip{};
  const GridThermalModel model(GridThermalParams{}, die_mm, die_mm);

  const auto identity = identity_floorplan(mesh);
  const auto remapped = thermal_aware_floorplan(mesh, 0);

  Table t({"level", "identity peak (K)", "floorplan peak (K)", "delta (K)",
           "identity proximity", "floorplan proximity"});
  int improved = 0;
  const int levels[] = {2, 3, 4, 6, 8, 12};
  for (int k : levels) {
    const auto active = active_set(mesh, k, 0);
    const Kelvin pi =
        peak_temp(mesh, active, identity.positions, die_mm, model, chip);
    const Kelvin pf =
        peak_temp(mesh, active, remapped.positions, die_mm, model, chip);
    if (pf < pi) ++improved;
    t.add_row({Table::fmt(static_cast<long long>(k)), Table::fmt(pi, 2),
               Table::fmt(pf, 2), Table::fmt(pf - pi, 2),
               Table::fmt(thermal_proximity(mesh, active,
                                            identity.positions), 3),
               Table::fmt(thermal_proximity(mesh, active,
                                            remapped.positions), 3)});
  }
  t.print();

  std::printf("\nwire-length cost: identity %.1f pitches, floorplanned %.1f "
              "pitches (%.1fx) — mitigated by clockless repeated wires "
              "(Section 3.3)\n",
              identity.total_wire_length, remapped.total_wire_length,
              remapped.total_wire_length / identity.total_wire_length);
  bench::headline("levels with lower peak after floorplanning",
                  "better temperature profile at low/mid levels",
                  Table::fmt(static_cast<long long>(improved)) + " of 6");
  return 0;
}
