// Network over a Topology (the paper's mesh is one case): owns routers,
// network interfaces, and all connecting channels; exposes sprint-region configuration (active endpoints + gated
// dark region) used by the NoC-sprinting controller.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "noc/network_interface.hpp"
#include "noc/params.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"
#include "noc/stats_collector.hpp"
#include "noc/topology.hpp"
#include "noc/traffic.hpp"

namespace nocs::noc {

/// Cycle latency of the directed link from one router to an adjacent one.
/// Lets physical floorplans assign longer latencies to stretched links
/// (or SMART repeated wires collapse them back to one cycle).
using LinkLatencyFn = std::function<int(NodeId from, NodeId to)>;

class Network {
 public:
  /// Builds the network over an arbitrary topology graph (the network
  /// keeps its own copy; params.num_nodes() must equal topo.num_nodes()).
  /// `policy` must outlive the network.  Channel pipes are instantiated in
  /// topo.links() order; per-link latencies > 0 override
  /// params.link_latency, and `link_latency` (must return >= 1) fills the
  /// rest in place of params.link_latency when provided.
  Network(const NetworkParams& params, Topology topo,
          const RoutingPolicy* policy, LinkLatencyFn link_latency = nullptr);

  /// The params.width x params.height mesh: the topology constructor over
  /// Topology::mesh(width, height).
  Network(const NetworkParams& params, const RoutingPolicy* policy,
          LinkLatencyFn link_latency = nullptr)
      : Network(params, Topology::mesh(params.width, params.height), policy,
                std::move(link_latency)) {}

  // Channel sinks and wake callbacks capture `this`.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Latency of the directed link between adjacent nodes (cycles).
  int link_latency(NodeId from, NodeId to) const;

  /// The interconnect graph this network was wired from.
  const Topology& topology() const { return topo_; }

  /// The routing policy every router consults.
  const RoutingPolicy& routing_policy() const { return *policy_; }

  const NetworkParams& params() const { return params_; }
  Cycle now() const { return now_; }
  int num_nodes() const { return params_.num_nodes(); }

  /// Configures the set of active traffic endpoints (logical id i maps to
  /// physical node endpoints[i]) and the traffic pattern among them.  All
  /// other NIs stop generating.
  void set_endpoints(std::vector<NodeId> endpoints,
                     std::unique_ptr<TrafficPattern> traffic);

  /// Statically power-gates every router whose node is not in the active
  /// set, leaving the active sub-network on (NoC-sprinting's scheme).
  /// Requires a drained network.
  void gate_dark_region(const std::vector<NodeId>& active);

  /// Ungates every router.
  void ungate_all();

  /// Enables conventional dynamic power gating (idle-timeout + wake-on-
  /// arrival) on every router.
  void set_dynamic_gating(bool enabled);

  /// Sets the same offered load on every active endpoint (flits/cycle).
  void set_injection_rate(double flits_per_cycle_per_node);

  /// Switches every NI to request-reply protocol mode (short class-0
  /// requests, `reply_length`-flit class-1 data replies).  Requires
  /// params.num_classes >= 2.
  void set_request_reply(int request_length, int reply_length);

  /// Reseeds all NI RNGs deterministically from one master seed.
  void set_seed(std::uint64_t seed);

  // --- multicast ------------------------------------------------------------

  /// Registers a multicast destination set and returns its group id for
  /// NetworkInterface::send_multicast.  Members are sorted and
  /// deduplicated; the sorted order defines the deterministic tree shape.
  /// Groups are configuration (like endpoints), not dynamic state: a
  /// restored network must re-register the same groups before load_state.
  int add_multicast_group(std::vector<NodeId> members);

  /// Number of registered groups.
  int num_multicast_groups() const {
    return static_cast<int>(mcast_groups_.size());
  }

  /// Sorted members of group `g`.
  const std::vector<NodeId>& multicast_group(int g) const {
    return mcast_groups_.at(static_cast<std::size_t>(g));
  }

  /// Switches every NI between tree multicast (true) and the
  /// serial-unicast fallback (false, the default — `multicast=off` keeps
  /// runs without multicast senders bit-identical to older builds).
  void set_multicast(bool enabled);

  // --- per-cycle hook -------------------------------------------------------

  /// Installs a hook run serially at the top of every tick(), before the
  /// (possibly parallel) simulation phases — the injection point for
  /// closed-loop workload drivers (mem::TileTransferDriver).  Runs on the
  /// calling thread regardless of sim_threads, so anything it does is
  /// bit-identical for any thread count.  Pass nullptr to remove.
  void set_pre_tick_hook(std::function<void(Cycle)> hook) {
    pre_tick_ = std::move(hook);
  }

  // --- fault resilience -----------------------------------------------------

  /// Attaches `oracle` to every router and NI and, when `prot` is non-null,
  /// turns on end-to-end protection (checksum + ACK/NACK retransmission +
  /// duplicate filtering) at every NI.  Pass a null oracle to detach; the
  /// fault-free path is bit-identical when nothing is attached.
  void enable_resilience(FaultOracle* oracle,
                         const ProtectionParams* prot = nullptr);

  /// Flit-movement signature consumed by livelock/deadlock watchdogs: the
  /// value changes whenever any flit moves anywhere (buffer write, crossbar
  /// traversal, NI inject/eject) and stays put while the network is wedged.
  /// Pure cycle counters are excluded so an idle-but-alive network does not
  /// mask a stall.
  std::uint64_t progress_signature() const;

  /// Multi-line per-router diagnostic dump (power state, buffered flits,
  /// output credits, NI queue/unacked depth) for watchdog reports.  Only
  /// non-quiescent nodes are listed.
  std::string debug_snapshot() const;

  /// Advances the whole network by one cycle.
  void tick();

  /// Runs `n` cycles.
  void run(Cycle n);

  // --- intra-simulation parallelism -----------------------------------------

  /// Shards tick() spatially across `n` threads (row-bands of the mesh,
  /// one barrier-synchronized phase pair per cycle).  n <= 0 selects
  /// default_sim_thread_count() (the NOCS_SIM_THREADS environment
  /// variable, else 1 = serial); the value is clamped to the mesh height
  /// so every shard owns at least one full row.  Results are bit-identical
  /// for every thread count — see docs/ARCHITECTURE.md for the argument.
  /// Resets the fast-path scheduler conservatively (all nodes hot), which
  /// is also bit-identical, so the call is legal at any cycle boundary —
  /// including right after load_state with a different thread count than
  /// the checkpoint was written under.
  void set_sim_threads(int n);

  /// Shard count the tick loop actually uses (>= 1; after clamping).
  int sim_threads() const { return static_cast<int>(shards_.size()); }

  // Router accessors flush the lazily-synced leakage counters first so
  // callers always observe the same counts as if every cycle were ticked.
  Router& router(NodeId id) {
    Router& r = *routers_.at(static_cast<std::size_t>(id));
    r.sync_counters(now_);
    return r;
  }
  const Router& router(NodeId id) const {
    const Router& r = *routers_.at(static_cast<std::size_t>(id));
    r.sync_counters(now_);
    return r;
  }
  NetworkInterface& ni(NodeId id) {
    return *nis_.at(static_cast<std::size_t>(id));
  }

  /// Number of routers ticked last cycle (fast-path instrumentation).
  int hot_routers() const {
    int n = 0;
    for (const Shard& sh : shards_)
      for (const std::uint64_t w : sh.hot) n += std::popcount(w & kRouterBits);
    return n;
  }

  StatsCollector& stats() { return stats_; }
  const StatsCollector& stats() const { return stats_; }

  /// True when no flit is anywhere in the network (buffers, pipes, NIs)
  /// and no NI has work queued, mid-injection, unacknowledged or pending
  /// in its agent.  Costs O(shards + hot nodes), not O(nodes): the shards'
  /// flit tallies (raised by NIs at injection, lowered at ejection) must
  /// sum to zero, and every hot NI must be idle() — a cold NI is idle by
  /// the busy_next_cycle() invariant.  Every `true` is re-verified against
  /// drained_slow() under NOCS_ASSERT.
  bool drained() const;

  /// Reference O(nodes + links) drain scan: every router drained(), every
  /// NI idle(), every flit pipe empty.  drained() must always agree.
  bool drained_slow() const;

  /// Sum of all router counters (for power estimation).
  RouterCounters total_counters() const;

  /// Per-router counters indexed by node id.
  std::vector<RouterCounters> per_router_counters() const;

  /// Clears all router counters.
  void reset_counters();

  const std::vector<NodeId>& endpoints() const { return endpoints_; }

  // --- checkpoint/restore ---------------------------------------------------
  //
  // save_state captures the complete dynamic state (current cycle, every
  // router/NI, every in-flight flit and credit, statistics) plus a
  // topology fingerprint.  load_state requires a network constructed and
  // configured (endpoints, seed, gating, rates) exactly as the saved one;
  // it verifies the fingerprint, restores the dynamic state, and resets
  // the fast-path scheduling so the resumed simulation is bit-identical
  // to one that never stopped.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  // --- active-node fast path + spatial sharding ----------------------------
  //
  // tick() only visits routers/NIs whose hot bit is set, walking a hot
  // bitset by set bit, so an idle node costs nothing per cycle.  A node
  // stays hot while it self-reports work (busy_next_cycle()); when it goes
  // cold the network re-arms a wake-up at the earliest pending event on
  // its input pipes (calendar wheel indexed by cycle modulo its size), and
  // every pipe push into an empty queue schedules a cold consumer via its
  // NodeSink (a hot one needs no wake: it re-arms from its pipes if it
  // cools).  Hot nodes are ticked in ascending node id order, preserving
  // the exact stats/counter accumulation order of the tick-everything
  // loop.
  //
  // All of that mutable scheduling state lives per *shard* — a contiguous
  // row-band of node ids (node ids are row-major, so row-bands are
  // contiguous id ranges).  Serial operation is simply the 1-shard case of
  // the same code path.  With S > 1 shards each cycle runs as two
  // barrier-synchronized phases on a BarrierTeam:
  //
  //   phase 1 (tick):       each shard processes its own wheel bucket and
  //                         ticks its hot NIs then hot routers, ascending
  //                         id.  Pushes into neighbor-shard pipes notify
  //                         the consumer via schedule(), which appends the
  //                         wake to the *producer* shard's outbox instead
  //                         of touching foreign wheels.
  //   phase 2 (cool/re-arm): each shard imports wakes addressed to it from
  //                         every outbox (fixed shard order), then cools
  //                         its own quiescent nodes and re-arms their
  //                         wake-ups.  Only owner shards ever write their
  //                         hot flags and wheels.
  //
  // After the second barrier the caller thread drains every shard's
  // deferred statistics into the master collector in ascending shard
  // order, which replays ejection events in exactly the serial ascending-
  // node-id order — bit-identical floating-point accumulation for any
  // thread count (pipes guarantee a ≥1-cycle latency, so shards never
  // observe same-cycle neighbor state; see docs/ARCHITECTURE.md).

  /// Per-consumer wake hook: routes Pipe push notifications to schedule().
  struct NodeSink final : WakeSink {
    Network* net = nullptr;
    std::uint32_t enc = 0;  ///< node id << 1 | is_ni
    void on_push(Cycle ready_at) override;
  };

  /// A wake request produced for a node owned by another shard.
  struct WakeEvent {
    std::uint32_t enc;
    Cycle at;
  };

  /// All per-cycle mutable scheduling state of one row-band, cache-line
  /// aligned so neighbor shards' writes never false-share.
  struct alignas(64) Shard {
    NodeId begin = 0;  ///< first owned node id
    NodeId end = 0;    ///< one past the last owned node id
    /// Hot bitset, enc-relative: bit 2*(id-begin) is the router, bit
    /// 2*(id-begin)+1 the NI, so routers sit on even bits, NIs on odd.
    std::vector<std::uint64_t> hot;
    /// Calendar wheel of pending wake-ups, bucket = cycle % size.
    std::vector<std::vector<std::uint32_t>> wheel;
    /// Wakes this shard produced for other shards' nodes this cycle.
    std::vector<WakeEvent> outbox;
    /// Deferring collector fed by this shard's NIs (S > 1 only).
    StatsCollector stats;
    /// Flits injected minus flits ejected by this shard's NIs.  A packet
    /// may leave on another shard, so one tally can go negative; the sum
    /// over shards is the number of flits in router buffers and pipes.
    std::int64_t flits = 0;
  };

  static constexpr std::uint64_t kRouterBits = 0x5555555555555555ull;
  static constexpr std::uint64_t kNiBits = ~kRouterBits;

  void schedule(std::uint32_t enc, Cycle ready_at);
  void schedule_local(Shard& sh, std::uint32_t enc, Cycle ready_at);
  /// Bit position of `enc` in its owner shard's hot bitset.
  static std::size_t hot_bit(const Shard& sh, std::uint32_t enc) {
    return static_cast<std::size_t>(enc) -
           2 * static_cast<std::size_t>(static_cast<std::uint32_t>(sh.begin));
  }
  static bool is_hot(const Shard& sh, std::uint32_t enc) {
    const std::size_t b = hot_bit(sh, enc);
    return ((sh.hot[b >> 6] >> (b & 63)) & 1u) != 0;
  }
  static void set_hot(Shard& sh, std::uint32_t enc) {
    const std::size_t b = hot_bit(sh, enc);
    sh.hot[b >> 6] |= std::uint64_t{1} << (b & 63);
  }
  static void clear_hot(Shard& sh, std::uint32_t enc) {
    const std::size_t b = hot_bit(sh, enc);
    sh.hot[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  }
  /// Calls f(id) for every node of `sh` whose hot bit under `kind`
  /// (kRouterBits or kNiBits) is set, in ascending id order.  Each word is
  /// read once when the walk reaches it, so f may change bits of the word
  /// being walked without changing which nodes this walk visits.
  template <typename F>
  static void for_each_hot(const Shard& sh, std::uint64_t kind, F&& f) {
    for (std::size_t w = 0; w < sh.hot.size(); ++w)
      for (std::uint64_t bits = sh.hot[w] & kind; bits != 0;
           bits &= bits - 1)
        f(sh.begin + static_cast<NodeId>(
                         (64 * w + static_cast<std::size_t>(
                                       std::countr_zero(bits))) >> 1));
  }
  void mark_hot(std::uint32_t enc) {
    set_hot(shards_[shard_of_[enc >> 1]], enc);
  }
  WakeSink* router_sink(NodeId id) {
    return &sinks_[static_cast<std::size_t>(2 * id)];
  }
  WakeSink* ni_sink(NodeId id) {
    return &sinks_[static_cast<std::size_t>(2 * id + 1)];
  }

  /// Rebuilds the shard partition for sim_threads_ shards with the
  /// conservative scheduler reset (everything hot, wheels empty) and
  /// `flits_in_flight` as the tallies' sum.
  void rebuild_shards(std::int64_t flits_in_flight);
  void tick_phase1(int s);
  void tick_phase2(int s);

  NetworkParams params_;
  Topology topo_;
  const RoutingPolicy* policy_ = nullptr;
  Cycle now_ = 0;

  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  std::vector<std::unique_ptr<Pipe<Flit>>> flit_pipes_;
  std::vector<std::unique_ptr<Pipe<Credit>>> credit_pipes_;

  std::vector<NodeId> endpoints_;
  std::unique_ptr<TrafficPattern> traffic_;
  std::vector<std::vector<NodeId>> mcast_groups_;
  std::function<void(Cycle)> pre_tick_;

  std::vector<NodeSink> sinks_;  // [2*id] router, [2*id+1] NI
  int sim_threads_ = 1;
  int wheel_slots_ = 0;  // per-shard wheel size: max link latency + 2
  std::vector<Shard> shards_;
  std::vector<std::uint32_t> shard_of_;  // node id -> owning shard
  std::unique_ptr<BarrierTeam> team_;    // S-1 workers when S > 1

  StatsCollector stats_;
};

}  // namespace nocs::noc
