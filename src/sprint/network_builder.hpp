// Convenience builders wiring a noc::Network for the sprinting schemes the
// paper compares:
//
//  * NoC-sprinting: active set = Algorithm 1 prefix, CDOR routing, dark
//    region statically gated.
//  * Full-sprinting: every router powered, XY-DOR routing; the k traffic
//    endpoints are mapped randomly over the whole mesh (the paper averages
//    ten such samples in Figure 11).
//
// The routing policy's lifetime is bound to the returned bundle.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "noc/params.hpp"
#include "noc/table_routing.hpp"
#include "noc/topology.hpp"

namespace nocs::sprint {

/// A sprinting network plus the routing policy it borrows.
struct NetworkBundle {
  std::unique_ptr<noc::RoutingPolicy> routing;
  std::unique_ptr<noc::Network> network;
  std::vector<NodeId> endpoints;  ///< the traffic endpoints
  /// The channel-dependency deadlock verdict the routes passed; filled by
  /// make_topology_sprinting_network, the one builder that runs the check
  /// (CDOR and XY-DOR are deadlock-free by construction).
  noc::DeadlockCheckResult deadlock;
};

/// Generalized NoC-sprinting network at `level` active cores on an
/// arbitrary topology: active set = generalized Algorithm 1 prefix
/// (connected growth by floorplan distance), dark region gated, endpoints
/// = the active nodes.  Routing: the paper's CDOR when `topo` is a mesh,
/// up*/down* tables rooted at the master otherwise — either way the
/// channel-dependency-graph deadlock check runs at build time and a
/// failure throws std::runtime_error (bundle.deadlock records the passing
/// verdict).  params.num_nodes() must equal topo.num_nodes().
NetworkBundle make_topology_sprinting_network(
    const noc::NetworkParams& params, const noc::Topology& topo, int level,
    const std::string& traffic, std::uint64_t seed, NodeId master = 0);

/// NoC-sprinting network at `level` active cores: CDOR over the Algorithm 1
/// prefix, dark region gated, endpoints = the active nodes.  A
/// `link_latency` (e.g. PhysicalWires::latency_fn() of a floorplan) gives
/// each logical link the latency its physical wire needs — Section 3.3's
/// wiring cost, and the SMART wires that absorb it.
NetworkBundle make_noc_sprinting_network(const noc::NetworkParams& params,
                                         int level,
                                         const std::string& traffic,
                                         std::uint64_t seed,
                                         NodeId master = 0,
                                         noc::LinkLatencyFn link_latency =
                                             nullptr);

/// Full-sprinting network: all routers on, XY-DOR; `level` endpoints
/// placed uniformly at random (always including the master so comparisons
/// share the memory-controller node).
NetworkBundle make_full_sprinting_network(const noc::NetworkParams& params,
                                          int level,
                                          const std::string& traffic,
                                          std::uint64_t seed,
                                          NodeId master = 0);

}  // namespace nocs::sprint
