// Deterministic, seed-driven fault injector (the concrete FaultOracle).
//
// Every fault class draws from its own per-entity RNG stream derived from
// one master seed via task_seed(), so outcomes are reproducible and
// independent of query order, of which other entities see traffic, and of
// NOCS_THREADS: node 5's wake-up faults are the same whether or not node 3
// ever injects a packet.  Link outages are lazily materialized interval
// schedules per directed link — link_down() can be asked about any cycle
// in nondecreasing order per link and always answers from the same
// schedule.
#pragma once

#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/config.hpp"
#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "noc/fault_hooks.hpp"

namespace nocs::fault {

/// All fault-injection knobs, parsed from `fault_*` config keys.  With
/// `enabled == false` (key `faults`, default off) nothing is ever injected
/// and seed experiments stay bit-identical.
struct FaultParams {
  bool enabled = false;
  std::uint64_t seed = 1;

  double flip_rate = 0.0;      ///< P(bit flip) per flit per link traversal
  double drop_rate = 0.0;      ///< P(packet lost) at injection, per packet
  double link_down_rate = 0.0; ///< expected outages per link per cycle
  int link_down_cycles = 100;  ///< duration of one link outage

  double wake_fail_prob = 0.0; ///< P(power-gate wake attempt fails)
  int wake_retry = 50;         ///< cycles between wake retries
  int wake_max_retries = 20;   ///< attempts after which a wake always succeeds
                               ///< (< 0: may fail forever — a dead node)

  std::vector<NodeId> stuck;   ///< routers that freeze fail-stop...
  Cycle stuck_from = 0;        ///< ...from this cycle on

  int ack_timeout = 256;       ///< NI protection: base ACK timeout
  int max_backoff = 4096;      ///< NI protection: backoff cap

  /// Reads `faults`, `fault_seed`, `fault_flip_rate`, `fault_drop_rate`,
  /// `fault_link_down_rate`, `fault_link_down_cycles`,
  /// `fault_wake_fail_prob`, `fault_wake_retry`, `fault_wake_max_retries`,
  /// `fault_stuck` (comma-separated node ids), `fault_stuck_from`,
  /// `fault_ack_timeout`, `fault_max_backoff`.  Throws
  /// std::invalid_argument on a malformed or out-of-range value.
  static FaultParams from_config(const Config& cfg);

  /// The first condition these parameters break, or nullptr when valid.
  const char* problem() const;

  /// Aborts when problem() is not nullptr.
  void validate() const;

  noc::ProtectionParams protection() const {
    return noc::ProtectionParams{ack_timeout, max_backoff};
  }
};

/// Concrete deterministic fault oracle.  Attach via
/// Network::enable_resilience(&injector, &params.protection()).
///
/// Serializable so checkpointed faulty runs resume bit-identically: the
/// RNG stream positions and lazily-materialized link-outage schedules are
/// part of the simulation state.
class FaultInjector final : public noc::FaultOracle,
                            public snapshot::Serializable {
 public:
  FaultInjector(const MeshShape& mesh, const FaultParams& params);

  // snapshot::Serializable (dynamic state only; params are re-read from
  // config by the caller before load_state):
  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

  const FaultParams& params() const { return params_; }

  // FaultOracle:
  bool corrupt_link_flit(NodeId from, NodeId to, Cycle now) override;
  bool link_down(NodeId from, NodeId to, Cycle now) override;
  bool drop_packet(NodeId src, Cycle now) override;
  bool wake_fails(NodeId node, int attempt, Cycle now) override;
  int wake_retry_latency() const override { return params_.wake_retry; }
  bool router_stuck(NodeId node, Cycle now) override;

  /// Nodes configured to freeze (used by degradation planning/tests).
  const std::vector<NodeId>& stuck_nodes() const { return params_.stuck; }

 private:
  /// Lazily-advanced outage schedule of one directed link.
  struct LinkSchedule {
    Rng rng;
    Cycle down_start = 0;  ///< current/next outage interval
    Cycle down_end = 0;    ///< exclusive
    explicit LinkSchedule(std::uint64_t seed) : rng(seed) {}
  };

  std::uint64_t link_key(NodeId from, NodeId to) const {
    return static_cast<std::uint64_t>(from) *
               static_cast<std::uint64_t>(mesh_.size()) +
           static_cast<std::uint64_t>(to);
  }
  LinkSchedule& schedule_for(NodeId from, NodeId to);
  void advance_schedule(LinkSchedule& s, Cycle now);

  MeshShape mesh_;
  FaultParams params_;

  // Decorrelated per-entity streams, all derived from params_.seed.
  std::vector<Rng> flip_rngs_;  ///< one per source node (covers its out-links)
  std::vector<Rng> drop_rngs_;  ///< one per node
  std::vector<Rng> wake_rngs_;  ///< one per node
  // Outage schedules materialize lazily on first query.  Every query for
  // link (from, to) comes from router `from`'s tick, so each entry is
  // mutated by exactly one shard thread — but first-touch *insertion* can
  // rehash the map while another shard inserts or looks up a different
  // link, hence the mutex around schedule_for().  References stay valid
  // across inserts (unordered_map never invalidates them), so the
  // per-entry mutation outside the lock is safe.
  std::mutex schedules_mu_;
  std::unordered_map<std::uint64_t, LinkSchedule> link_schedules_;
  std::unordered_set<NodeId> stuck_set_;
};

}  // namespace nocs::fault
