#include "sprint/network_builder.hpp"

#include <algorithm>
#include <stdexcept>

#include "sprint/cdor.hpp"
#include "sprint/topology.hpp"

namespace nocs::sprint {

NetworkBundle make_topology_sprinting_network(
    const noc::NetworkParams& params, const noc::Topology& topo, int level,
    const std::string& traffic, std::uint64_t seed, NodeId master) {
  NOCS_EXPECTS(level >= 2 && level <= topo.num_nodes());
  NOCS_EXPECTS(topo.num_nodes() == params.num_nodes());
  NetworkBundle b;
  b.endpoints = active_set(topo, level, master);
  if (topo.is_mesh()) {
    // Mesh specialization: the paper's CDOR over the Algorithm 1 prefix,
    // identical to make_noc_sprinting_network.
    b.routing = std::make_unique<CdorRouting>(topo.mesh_shape(), b.endpoints,
                                              master);
  } else {
    b.routing = std::make_unique<noc::TableRouting>(
        noc::TableRouting::up_down(topo, b.endpoints, master));
  }
  // Certify before wiring anything: every active-pair route must terminate
  // inside the powered region with an acyclic channel-dependency graph.
  b.deadlock = noc::check_deadlock_free(topo, *b.routing, b.endpoints);
  if (!b.deadlock.ok)
    throw std::runtime_error("topology sprint level " +
                             std::to_string(level) +
                             " fails the deadlock check: " +
                             b.deadlock.detail);
  b.network = std::make_unique<noc::Network>(params, topo, b.routing.get());
  b.network->set_endpoints(b.endpoints, noc::make_traffic(traffic, level));
  b.network->gate_dark_region(b.endpoints);
  b.network->set_seed(seed);
  return b;
}

NetworkBundle make_noc_sprinting_network(const noc::NetworkParams& params,
                                         int level,
                                         const std::string& traffic,
                                         std::uint64_t seed, NodeId master,
                                         noc::LinkLatencyFn link_latency) {
  NOCS_EXPECTS(level >= 2 && level <= params.num_nodes());
  NetworkBundle b;
  b.endpoints = active_set(params.shape(), level, master);
  b.routing = std::make_unique<CdorRouting>(params.shape(), b.endpoints,
                                            master);
  b.network = std::make_unique<noc::Network>(params, b.routing.get(),
                                             std::move(link_latency));
  b.network->set_endpoints(b.endpoints,
                           noc::make_traffic(traffic, level));
  b.network->gate_dark_region(b.endpoints);
  b.network->set_seed(seed);
  return b;
}

NetworkBundle make_full_sprinting_network(const noc::NetworkParams& params,
                                          int level,
                                          const std::string& traffic,
                                          std::uint64_t seed, NodeId master) {
  NOCS_EXPECTS(level >= 2 && level <= params.num_nodes());
  NOCS_EXPECTS(params.shape().valid(master));
  NetworkBundle b;

  // Random endpoint mapping over the full mesh, master always included.
  Rng rng(seed ^ 0xf00dfeedbeefULL);
  std::vector<NodeId> pool;
  for (NodeId id = 0; id < params.num_nodes(); ++id)
    if (id != master) pool.push_back(id);
  // Fisher-Yates partial shuffle for the first level-1 picks.
  for (std::size_t i = 0; i < static_cast<std::size_t>(level - 1); ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_int(pool.size() - i));
    std::swap(pool[i], pool[j]);
  }
  b.endpoints.push_back(master);
  b.endpoints.insert(b.endpoints.end(), pool.begin(),
                     pool.begin() + (level - 1));

  b.routing = std::make_unique<noc::XyRouting>();
  b.network = std::make_unique<noc::Network>(params, b.routing.get());
  b.network->set_endpoints(b.endpoints,
                           noc::make_traffic(traffic, level));
  b.network->set_seed(seed);
  return b;
}

}  // namespace nocs::sprint
