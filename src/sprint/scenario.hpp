// One sprint scenario — a network, a sprint level, a routing scheme and a
// traffic pattern — read from config once, then built, run and reported
// the same way by CLI `mode=simulate`/`mode=sweep` and serve
// `simulate`/`sweep` jobs.  The run window stays with the caller:
// simulate_window() for one run, sweep_window() and rates= for a sweep.
// The mesh builds through make_noc_sprinting_network (scheme=noc) or
// make_full_sprinting_network (scheme=full); any other graph through
// make_topology_sprinting_network and its build-time deadlock check.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "fault/fault_injector.hpp"
#include "noc/params.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "power/noc_power.hpp"
#include "sprint/network_builder.hpp"

namespace nocs::sprint {

/// A built scenario: the network with its routing, and the fault injector
/// it borrows when faults=true (declared first, so it outlives the
/// network).
struct ScenarioNetwork {
  std::unique_ptr<fault::FaultInjector> injector;
  NetworkBundle bundle;
};

class Scenario {
 public:
  /// Reads every scenario key of `cfg`: the network shape
  /// (NetworkParams::from_config), topology=/topo_file=/ring_skip=,
  /// level=, traffic=, seed=, scheme=, protocol=, sim_threads=, the fault
  /// keys and watchdog=.  Throws std::invalid_argument on a malformed
  /// value and on what the builders cannot honour: scheme=full or
  /// faults=true off the mesh, protocol=true with one message class, or a
  /// key that only applies next to another one (ring_skip=, topo_file=,
  /// watchdog=, width=/height= with topology=file).
  static Scenario from_config(const Config& cfg);

  /// Builds the network with traffic seeded by `seed` (the scenario's own
  /// seed for a single run, task_seed(seed(), i) for sweep point i), then
  /// wires request/reply, sim_threads and the fault injector.
  ScenarioNetwork build(std::uint64_t seed) const;

  /// run_simulation over `net`; with faults=true it arms the watchdog and
  /// checkpoints the fault injector's streams along with the network.
  noc::SimResults run(ScenarioNetwork& net, noc::SimConfig sim,
                      noc::CheckpointConfig ckpt) const;

  /// Router + link power of a finished run (Table 1 link length).
  power::NocPowerEstimate power(const ScenarioNetwork& net,
                                const noc::SimResults& r) const;

  /// The `report=` document of one run: to_json(r), then `mode` (omitted
  /// when empty), scheme, level, traffic, injection rate, seed and power;
  /// off the mesh also the topology, its fingerprint (16 hex digits) and
  /// the deadlock verdict.
  json::Value report(const ScenarioNetwork& net, const noc::SimResults& r,
                     double injection_rate, const std::string& mode) const;

  /// The `report=` document of a sweep: {tag_key: "sweep", level,
  /// traffic, seed, points} (plus topology and fingerprint off the mesh),
  /// `points` built by point_report in rate order.
  json::Value sweep_report(const std::string& tag_key,
                           json::Value points) const;

  /// One sweep point: to_json(r) plus its injection rate.
  static json::Value point_report(const noc::SimResults& r,
                                  double injection_rate);

  /// The graph off the mesh; nullptr on the mesh.
  const noc::Topology* topology() const {
    return topology_ ? &*topology_ : nullptr;
  }
  std::uint64_t seed() const { return seed_; }
  bool full() const { return full_; }
  const fault::FaultParams& faults() const { return faults_; }

 private:
  Scenario() = default;

  noc::NetworkParams params_;
  std::optional<noc::Topology> topology_;
  int level_ = 4;
  std::string traffic_ = "uniform";
  std::uint64_t seed_ = 1;
  bool full_ = false;
  bool protocol_ = false;
  int sim_threads_ = 0;
  fault::FaultParams faults_;
  Cycle watchdog_ = 0;
};

/// The single-run window: warmup= (2000), measure= (10000) and
/// injection= (0.1) of `cfg`.
noc::SimConfig simulate_window(const Config& cfg);

/// The fixed window every sweep point runs: 1000 warmup, 6000 measure.
noc::SimConfig sweep_window();

/// Expands a `rates=` spec `start:step:end` (start > 0, step > 0,
/// end >= start, at most 4096 points).  Throws std::invalid_argument.
std::vector<double> parse_rates(const std::string& spec);

/// Task-manifest fingerprint of an injection sweep: task count, base seed
/// and every rate, formatted bit-exactly.  Reusing a manifest whose
/// fingerprint differs (rates, seed or count changed) starts fresh.
std::string sweep_fingerprint(const std::vector<double>& rates,
                              std::uint64_t base_seed);

}  // namespace nocs::sprint
