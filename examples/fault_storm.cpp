// fault_storm — sweeps fault intensity on a sprinting NoC and reports how
// throughput and latency degrade while the end-to-end protection keeps
// delivery lossless, then shows the sprint controller degrading gracefully
// around failed nodes.
//
// Build & run:  cmake --build build --target fault_storm && ./build/examples/fault_storm
#include <cstdio>
#include <memory>
#include <string>

#include "common/table.hpp"
#include "fault/fault_injector.hpp"
#include "noc/simulator.hpp"
#include "sprint/network_builder.hpp"
#include "sprint/topology.hpp"

using namespace nocs;

int main() {
  noc::NetworkParams params;
  const int level = 8;

  std::printf("fault storm on a level-%d NoC-sprinting network (%dx%d)\n\n",
              level, params.width, params.height);

  // Part 1: fault-rate sweep.  Each point combines transient bit flips,
  // injection drops, and periodic link outages at a common intensity; the
  // protection layer retransmits until everything is delivered, so the
  // cost shows up as latency/throughput, never as loss.
  Table t({"flip_rate", "drop_rate", "latency", "p99", "accepted", "retx",
           "corrupt", "reroutes", "delivered", "hung"});
  for (const double s : {0.0, 1e-5, 1e-4, 1e-3, 5e-3}) {
    sprint::NetworkBundle b =
        sprint::make_noc_sprinting_network(params, level, "uniform", 1);
    fault::FaultParams fp;
    fp.enabled = s > 0.0;
    fp.seed = 42;
    fp.flip_rate = s;
    fp.drop_rate = s;
    fp.link_down_rate = s / 10.0;
    fp.link_down_cycles = 50;

    noc::SimConfig sim;
    sim.warmup = 1000;
    sim.measure = 5000;
    sim.injection_rate = 0.1;

    std::unique_ptr<fault::FaultInjector> injector;
    if (fp.enabled) {
      injector = std::make_unique<fault::FaultInjector>(params.shape(), fp);
      const noc::ProtectionParams prot = fp.protection();
      b.network->enable_resilience(injector.get(), &prot);
      sim.watchdog_cycles = 20000;
    }

    const noc::SimResults r = run_simulation(*b.network, sim);
    const bool lossless = r.packets_ejected >= r.packets_generated;
    t.add_row({Table::fmt(fp.flip_rate, 5), Table::fmt(fp.drop_rate, 5),
               Table::fmt(r.avg_packet_latency, 2),
               Table::fmt(r.p99_latency, 1), Table::fmt(r.accepted_rate, 4),
               std::to_string(r.resilience.retransmissions),
               std::to_string(r.counters.flits_corrupted),
               std::to_string(r.counters.reroutes),
               lossless ? "all" : "LOST", r.hung ? "yes" : "no"});
  }
  t.print();

  // Part 2: graceful degradation.  When a node is stuck or its power-gate
  // wake-up fails permanently, the sprint region shrinks to the largest
  // healthy prefix of Algorithm 1's order — still convex, so CDOR stays
  // valid without re-derivation.
  std::printf("\ngraceful degradation (sprint level %d requested)\n", level);
  const MeshShape mesh = params.shape();
  const auto order = sprint::sprint_order(mesh, 0);
  const std::vector<std::vector<NodeId>> failure_sets = {
      {},
      {order[6]},
      {order[3]},
      {order[3], order[6]},
      {order[1]},
  };
  Table d({"failed nodes", "degraded level", "active set", "convex"});
  for (const auto& failed : failure_sets) {
    const auto healthy =
        sprint::largest_healthy_prefix(mesh, level, failed, 0);
    std::string failed_str, active_str;
    for (NodeId id : failed) {
      if (!failed_str.empty()) failed_str += ',';
      failed_str += std::to_string(id);
    }
    for (NodeId id : healthy) {
      if (!active_str.empty()) active_str += ',';
      active_str += std::to_string(id);
    }
    d.add_row({failed_str.empty() ? "-" : failed_str,
               std::to_string(healthy.size()),
               active_str,
               !healthy.empty() && sprint::is_convex_region(mesh, healthy)
                   ? "yes"
                   : "-"});
  }
  d.print();
  return 0;
}
