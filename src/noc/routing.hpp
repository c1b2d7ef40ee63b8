// The routing interface and the baseline dimension-order routers.
//
// Every router consults one RoutingPolicy: node ids in, output port index
// out.  Dimension-order routing (XY, YX) and the paper's contribution —
// CDOR, convex dimension-order routing with two connectivity bits per
// switch (src/sprint/cdor.hpp) — implement it over the mesh's floorplan
// coordinates; TableRouting (table_routing.hpp) implements it with
// up*/down* next-hop tables for arbitrary topologies.  The network core is
// routing-agnostic.
#pragma once

#include "common/geometry.hpp"
#include "noc/topology.hpp"

namespace nocs::noc {

/// Computes the output port index a head flit takes at router `cur`
/// towards `dst` on `topo`.  Deterministic single-path routing: one port
/// per (cur,dst) pair.  Port 0 is always the local (NI) port.
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  /// Returns the output port index; 0 (local) when cur == dst.
  /// Precondition: `dst` must be reachable from `cur` under this policy.
  virtual int route_port(const Topology& topo, NodeId cur,
                         NodeId dst) const = 0;

  /// Fault fallback: the link behind `blocked` (the port route_port()
  /// returned) is down — return an alternative output port, or `blocked`
  /// itself when no detour is safe (the packet then rides the faulty link
  /// and end-to-end retransmission recovers any corruption).  The default
  /// declines to detour; CDOR overrides it with its deadlock-free convex
  /// detour (the same NE-turn its staircase argument already admits).
  virtual int reroute_port(const Topology&, NodeId, NodeId,
                           int blocked) const {
    return blocked;
  }

  /// Human-readable name for logs/tables.
  virtual const char* name() const = 0;
};

/// Classic X-Y dimension-order routing on a full 2-D mesh: exhaust the X
/// offset, then the Y offset.  Deadlock-free because only EN/ES/WN/WS turns
/// occur (no NE/NW/SE/SW), which breaks both abstract cycles.  Directional
/// Port values are the mesh topology's port indices.
class XyRouting final : public RoutingPolicy {
 public:
  Port route(Coord cur, Coord dst) const {
    if (dst.x > cur.x) return Port::kEast;
    if (dst.x < cur.x) return Port::kWest;
    if (dst.y > cur.y) return Port::kSouth;
    if (dst.y < cur.y) return Port::kNorth;
    return Port::kLocal;
  }

  int route_port(const Topology& topo, NodeId cur,
                 NodeId dst) const override {
    return static_cast<int>(route(topo.coord(cur), topo.coord(dst)));
  }

  const char* name() const override { return "xy-dor"; }
};

/// Y-X dimension-order routing (exhaust Y first); used in routing tests and
/// as an ablation baseline.
class YxRouting final : public RoutingPolicy {
 public:
  Port route(Coord cur, Coord dst) const {
    if (dst.y > cur.y) return Port::kSouth;
    if (dst.y < cur.y) return Port::kNorth;
    if (dst.x > cur.x) return Port::kEast;
    if (dst.x < cur.x) return Port::kWest;
    return Port::kLocal;
  }

  int route_port(const Topology& topo, NodeId cur,
                 NodeId dst) const override {
    return static_cast<int>(route(topo.coord(cur), topo.coord(dst)));
  }

  const char* name() const override { return "yx-dor"; }
};

}  // namespace nocs::noc
