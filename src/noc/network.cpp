#include "noc/network.hpp"

#include <algorithm>
#include <sstream>

namespace nocs::noc {

namespace {

/// Shard index the current thread is executing a parallel tick phase for,
/// or -1 outside the phases (serial contexts).  Lets schedule() tell
/// own-shard wakes (applied directly) from cross-shard wakes (queued in
/// the producer's outbox).  Thread-local rather than per-network: a thread
/// only ever executes one network's phase at a time.
thread_local int t_current_shard = -1;

}  // namespace

Network::Network(const NetworkParams& params, Topology topo,
                 const RoutingPolicy* policy, LinkLatencyFn link_latency)
    : params_(params), topo_(std::move(topo)), policy_(policy) {
  NOCS_EXPECTS(policy != nullptr);
  params_.validate();
  NOCS_EXPECTS(topo_.num_nodes() == params_.num_nodes());
  const int n = topo_.num_nodes();

  auto latency_of = [&](NodeId from, NodeId to) {
    if (!link_latency) return params_.link_latency;
    const int lat = link_latency(from, to);
    NOCS_EXPECTS(lat >= 1);
    return lat;
  };

  routers_.reserve(static_cast<std::size_t>(n));
  nis_.reserve(static_cast<std::size_t>(n));
  for (NodeId id = 0; id < n; ++id) {
    routers_.push_back(
        std::make_unique<Router>(id, params_, topo_, policy_));
    nis_.push_back(std::make_unique<NetworkInterface>(id, params_, &stats_));
  }

  // Fast-path bookkeeping: everything starts hot and cools after the first
  // tick in which it reports no work (rebuild_shards below sets the flags).
  sinks_.resize(static_cast<std::size_t>(2 * n));
  for (NodeId id = 0; id < n; ++id) {
    auto& rs = sinks_[static_cast<std::size_t>(2 * id)];
    rs.net = this;
    rs.enc = static_cast<std::uint32_t>(id) << 1;
    auto& ns = sinks_[static_cast<std::size_t>(2 * id + 1)];
    ns.net = this;
    ns.enc = (static_cast<std::uint32_t>(id) << 1) | 1u;
    routers_[static_cast<std::size_t>(id)]->set_wake_callback(
        [this, id] { mark_hot(static_cast<std::uint32_t>(id) << 1); });
    nis_[static_cast<std::size_t>(id)]->set_wake_callback([this, id] {
      mark_hot((static_cast<std::uint32_t>(id) << 1) | 1u);
    });
  }

  // Pipes start at their latency's ring size; rebuild_shards() reserves
  // the credit-flow bound on the pipes that cross shard boundaries.
  int max_latency = 1;
  auto new_flit_pipe = [&](int latency) {
    max_latency = std::max(max_latency, latency);
    flit_pipes_.push_back(std::make_unique<Pipe<Flit>>(latency));
    return flit_pipes_.back().get();
  };
  auto new_credit_pipe = [&]() {
    credit_pipes_.push_back(std::make_unique<Pipe<Credit>>(1));
    return credit_pipes_.back().get();
  };

  // Inter-router links: one flit + credit channel per directed topology
  // link, instantiated in links() order (so flit_pipes_[l] carries link l —
  // link_latency() relies on it).  The mesh generator emits links
  // in the historic mesh wiring order (per node ascending, east pair then
  // south pair, forward then reverse), so mesh networks allocate and wire
  // byte-identical pipe sequences to the pre-topology constructor.
  for (const TopoLink& l : topo_.links()) {
    Router& a = *routers_[static_cast<std::size_t>(l.src)];
    Router& b = *routers_[static_cast<std::size_t>(l.dst)];

    const int lat = l.latency > 0 ? l.latency : latency_of(l.src, l.dst);

    Pipe<Flit>* ab = new_flit_pipe(lat);
    Pipe<Credit>* ab_credit = new_credit_pipe();
    ab->set_sink(router_sink(l.dst));         // dst consumes src's flits
    ab_credit->set_sink(router_sink(l.src));  // src consumes dst's credits
    a.connect_output(l.src_port, ab, ab_credit);
    b.connect_input(l.dst_port, ab, ab_credit);
  }

  // Local NI <-> router channels.
  for (NodeId id = 0; id < n; ++id) {
    Router& r = *routers_[static_cast<std::size_t>(id)];
    NetworkInterface& ni = *nis_[static_cast<std::size_t>(id)];
    // Multicast wiring: every NI can resolve group member lists (the
    // table object outlives the NIs) and charges replication work to its
    // own router's counters (same node, same shard — race-free).
    ni.set_multicast_table(&mcast_groups_);
    ni.set_mc_counters(&r.raw_counters());

    Pipe<Flit>* inj = new_flit_pipe(1);
    Pipe<Credit>* inj_credit = new_credit_pipe();
    inj->set_sink(router_sink(id));    // router consumes injected flits
    inj_credit->set_sink(ni_sink(id)); // NI consumes freed credits
    r.connect_input(Port::kLocal, inj, inj_credit);

    Pipe<Flit>* ej = new_flit_pipe(1);
    Pipe<Credit>* ej_credit = new_credit_pipe();
    ej->set_sink(ni_sink(id));
    ej_credit->set_sink(router_sink(id));
    r.connect_output(Port::kLocal, ej, ej_credit);

    ni.connect(inj, inj_credit, ej, ej_credit);
  }

  // Calendar wheels are sized to cover the farthest-future event a pipe
  // push can produce (max latency), plus slack so `t % size` never aliases
  // `now`.  The initial partition honors NOCS_SIM_THREADS (default 1).
  wheel_slots_ = max_latency + 2;
  set_sim_threads(0);
}

void Network::set_sim_threads(int n) {
  if (n <= 0) n = default_sim_thread_count();
  // Mesh: clamp so every shard owns at least one full mesh row (node ids
  // are row-major, so row-bands are contiguous id ranges).  General
  // topologies shard by contiguous id ranges, so any count up to the node
  // count works; either way results are thread-count independent (pipes
  // guarantee >= 1 cycle of latency between any producer and consumer).
  const int cap = topo_.is_mesh() ? params_.height : topo_.num_nodes();
  sim_threads_ = std::max(1, std::min(n, cap));
  // The flits in flight carry over to the new partition (none yet when
  // the constructor calls this).
  std::int64_t in_flight = 0;
  for (const Shard& sh : shards_) in_flight += sh.flits;
  rebuild_shards(in_flight);
}

void Network::rebuild_shards(std::int64_t flits_in_flight) {
  const int S = sim_threads_;
  const int n = num_nodes();
  shards_.assign(static_cast<std::size_t>(S), Shard{});
  shard_of_.assign(static_cast<std::size_t>(n), 0);
  for (int s = 0; s < S; ++s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    if (topo_.is_mesh()) {
      sh.begin = params_.height * s / S * params_.width;
      sh.end = params_.height * (s + 1) / S * params_.width;
    } else {
      sh.begin = n * s / S;
      sh.end = n * (s + 1) / S;
    }
    // Conservative scheduler state: everything hot, wheels empty.  Ticking
    // a quiescent node is a no-op beyond leakage accounting, which
    // sync_counters() reproduces exactly, so this is bit-identical to any
    // previously accumulated wake schedule — nodes with no work simply
    // cool again after one tick.  That property is what makes re-sharding
    // legal at any cycle boundary (including after load_state).
    const std::size_t bits = 2 * static_cast<std::size_t>(sh.end - sh.begin);
    sh.hot.assign((bits + 63) / 64, ~std::uint64_t{0});
    if (bits % 64 != 0) sh.hot.back() = (std::uint64_t{1} << (bits % 64)) - 1;
    sh.wheel.assign(static_cast<std::size_t>(wheel_slots_),
                    std::vector<std::uint32_t>{});
    sh.stats.defer_to(S > 1 ? &stats_ : nullptr);
    for (NodeId id = sh.begin; id < sh.end; ++id)
      shard_of_[static_cast<std::size_t>(id)] = static_cast<std::uint32_t>(s);
  }
  // A pipe whose producer and consumer run on one thread may grow its ring
  // on demand (a stalled consumer, e.g. a stuck router, lets it fill).  A
  // pipe crossing shards is lock-free and must never reallocate, so it
  // pre-reserves the credit-flow bound on its occupancy: the downstream
  // buffering of one port, num_vcs * vc_depth flits or returning credits.
  // Rings this small keep the tick's working set in cache.
  if (S > 1) {
    const int bound = params_.num_vcs * params_.vc_depth + 1;
    const std::vector<TopoLink>& links = topo_.links();
    for (std::size_t l = 0; l < links.size(); ++l) {
      if (shard_of_[static_cast<std::size_t>(links[l].src)] ==
          shard_of_[static_cast<std::size_t>(links[l].dst)])
        continue;
      flit_pipes_[l]->reserve(bound);
      credit_pipes_[l]->reserve(bound);
    }
  }
  for (NodeId id = 0; id < n; ++id) {
    Shard& owner = shards_[shard_of_[static_cast<std::size_t>(id)]];
    NetworkInterface& ni = *nis_[static_cast<std::size_t>(id)];
    ni.set_stats(S > 1 ? &owner.stats : &stats_);
    ni.set_flit_tally(&owner.flits);
  }
  // Only the sum of the shards' tallies means anything, so shard 0 holds
  // it all.
  shards_.front().flits = flits_in_flight;
  if (S > 1 && (team_ == nullptr || team_->size() != S))
    team_ = std::make_unique<BarrierTeam>(S);
  else if (S == 1)
    team_.reset();
}

void Network::NodeSink::on_push(Cycle ready_at) {
  net->schedule(enc, ready_at);
}

void Network::schedule(std::uint32_t enc, Cycle ready_at) {
  if (ready_at == kNoPendingEvent) return;
  const std::uint32_t owner = shard_of_[enc >> 1];
  const int cur = t_current_shard;
  if (cur >= 0 && static_cast<std::uint32_t>(cur) != owner) {
    // Cross-shard wake during a parallel tick phase: only the owner may
    // touch its wheel/hot flags, so queue in the producer's outbox; the
    // owner imports it behind the phase barrier.
    shards_[static_cast<std::size_t>(cur)].outbox.push_back({enc, ready_at});
    return;
  }
  schedule_local(shards_[static_cast<std::size_t>(owner)], enc, ready_at);
}

void Network::schedule_local(Shard& sh, std::uint32_t enc, Cycle ready_at) {
  if (ready_at == kNoPendingEvent) return;
  // A hot consumer needs no wake: it is ticked next cycle, or — if it cools
  // in phase 2 first — re-armed from next_input_event(), which already
  // covers the value just pushed.  Only the owner shard runs this, so the
  // bit read does not race.
  if (is_hot(sh, enc)) return;
  if (ready_at <= now_) {  // already due: activate immediately
    set_hot(sh, enc);
    return;
  }
  NOCS_EXPECTS(ready_at - now_ < static_cast<Cycle>(sh.wheel.size()));
  sh.wheel[static_cast<std::size_t>(ready_at % sh.wheel.size())].push_back(
      enc);
}

int Network::link_latency(NodeId from, NodeId to) const {
  NOCS_EXPECTS(topo_.valid(from) && topo_.valid(to));
  const int port = topo_.port_to(from, to);
  NOCS_EXPECTS(port > 0);  // adjacent nodes only
  return flit_pipes_[static_cast<std::size_t>(topo_.link_out(from, port))]
      ->latency();
}

void Network::set_endpoints(std::vector<NodeId> endpoints,
                            std::unique_ptr<TrafficPattern> traffic) {
  NOCS_EXPECTS(endpoints.size() >= 2);
  NOCS_EXPECTS(traffic != nullptr);
  for (NodeId e : endpoints) NOCS_EXPECTS(topo_.valid(e));
  for (auto& ni : nis_) ni->clear_endpoint();
  endpoints_ = std::move(endpoints);
  traffic_ = std::move(traffic);
  for (int logical = 0; logical < static_cast<int>(endpoints_.size());
       ++logical) {
    nis_[static_cast<std::size_t>(endpoints_[static_cast<std::size_t>(
             logical)])]
        ->set_endpoint(logical, &endpoints_, traffic_.get());
  }
}

void Network::gate_dark_region(const std::vector<NodeId>& active) {
  std::vector<bool> is_active(static_cast<std::size_t>(num_nodes()), false);
  for (NodeId id : active) {
    NOCS_EXPECTS(topo_.valid(id));
    is_active[static_cast<std::size_t>(id)] = true;
  }
  for (NodeId id = 0; id < num_nodes(); ++id) {
    // Settle skipped-cycle accounting under the old power state before
    // switching; set_gated re-activates the router via its wake callback.
    routers_[static_cast<std::size_t>(id)]->sync_counters(now_);
    routers_[static_cast<std::size_t>(id)]->set_gated(
        !is_active[static_cast<std::size_t>(id)]);
  }
}

void Network::ungate_all() {
  for (auto& r : routers_) {
    r->sync_counters(now_);
    r->set_gated(false);
  }
}

void Network::set_dynamic_gating(bool enabled) {
  for (auto& r : routers_) {
    r->sync_counters(now_);
    r->set_dynamic_gating(enabled);
    r->set_allow_wakeup(enabled);
  }
}

void Network::set_injection_rate(double flits_per_cycle_per_node) {
  for (auto& ni : nis_) ni->set_injection_rate(flits_per_cycle_per_node);
}

void Network::set_request_reply(int request_length, int reply_length) {
  for (auto& ni : nis_) ni->set_request_reply(request_length, reply_length);
}

void Network::set_seed(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& ni : nis_) ni->set_seed(sm.next());
}

int Network::add_multicast_group(std::vector<NodeId> members) {
  NOCS_EXPECTS(!members.empty());
  for (const NodeId m : members) NOCS_EXPECTS(topo_.valid(m));
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  mcast_groups_.push_back(std::move(members));
  return static_cast<int>(mcast_groups_.size()) - 1;
}

void Network::set_multicast(bool enabled) {
  for (auto& ni : nis_) ni->set_multicast_enabled(enabled);
}

void Network::enable_resilience(FaultOracle* oracle,
                                const ProtectionParams* prot) {
  for (auto& r : routers_) r->set_fault_oracle(oracle);
  for (auto& ni : nis_) {
    ni->set_fault_oracle(oracle);
    if (prot != nullptr) ni->enable_protection(*prot);
  }
}

std::uint64_t Network::progress_signature() const {
  std::uint64_t sig = 0;
  for (const auto& r : routers_) {
    // No sync_counters: skipped cycles only accrue cycle counters, which
    // are deliberately excluded from the signature anyway.
    const RouterCounters& c = r->counters();
    sig += c.buffer_writes + c.xbar_traversals + c.link_flits;
  }
  // Ejections count as progress; generation deliberately does not.  NIs
  // keep generating into their (unbounded) source queues even when the
  // network core is wedged, so counting generation would let a hung
  // network look alive for as long as injection stays on.
  for (const auto& ni : nis_) sig += ni->total_ejected_flits();
  return sig;
}

std::string Network::debug_snapshot() const {
  std::ostringstream os;
  os << "network diagnostic @ cycle " << now_ << "\n";
  const char* state_names[] = {"active", "gated", "waking"};
  for (NodeId id = 0; id < num_nodes(); ++id) {
    const Router& r = *routers_[static_cast<std::size_t>(id)];
    const NetworkInterface& ni = *nis_[static_cast<std::size_t>(id)];
    const int buffered = r.buffered_flits();
    const std::size_t queued = ni.source_queue_depth();
    const std::size_t unacked = ni.unacked_count();
    const bool quiet = buffered == 0 && queued == 0 && unacked == 0 &&
                       r.power_state() == PowerState::kActive;
    if (quiet) continue;
    const Coord c = topo_.coord(id);
    os << "  node " << id << " (" << c.x << "," << c.y << ")"
       << " state=" << state_names[static_cast<int>(r.power_state())]
       << " buffered_flits=" << buffered
       << " output_credits=" << r.total_output_credits()
       << " ni_queue=" << queued << " ni_unacked=" << unacked << "\n";
  }
  return os.str();
}

void Network::tick() {
  // Serial pre-phase: workload drivers inject here, before any shard
  // thread starts, so driver behavior is identical for any sim_threads.
  if (pre_tick_) pre_tick_(now_);
  const int S = static_cast<int>(shards_.size());
  if (S == 1) {
    // Serial operation is the 1-shard case of the same two phases (no
    // barrier, no outbox traffic, stats recorded directly by the NIs).
    tick_phase1(0);
    tick_phase2(0);
  } else {
    team_->run([this](int s) {
      t_current_shard = s;
      tick_phase1(s);
      t_current_shard = -1;
    });
    team_->run([this](int s) {
      t_current_shard = s;
      tick_phase2(s);
      t_current_shard = -1;
    });
    // Ascending shard order = ascending node id order: replaying each
    // shard's buffered ejection events in this order reproduces the exact
    // floating-point accumulation sequence of the serial loop.
    for (Shard& sh : shards_) sh.stats.drain_deferred();
    for (Shard& sh : shards_) sh.outbox.clear();
  }
  ++now_;
}

void Network::tick_phase1(int s) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];

  // Activate nodes whose wake-up was scheduled for this cycle.  Stale
  // entries (node woke earlier for another reason) are harmless: ticking a
  // quiescent node is a no-op beyond counters sync_counters() reproduces.
  auto& bucket = sh.wheel[static_cast<std::size_t>(now_ % sh.wheel.size())];
  for (const std::uint32_t enc : bucket) set_hot(sh, enc);
  bucket.clear();

  // Ascending-id order over hot nodes matches the tick-everything loop, so
  // stats and counters accumulate in the identical order (bit-identical
  // floating-point results).  Pushes this phase have ready times strictly
  // after now_ (latency >= 1), so they only ever append to wheels/outboxes,
  // never set a hot bit — hot bits stay owner-written and the set walked
  // below does not change under the walk.
  for_each_hot(sh, kNiBits, [this](NodeId id) {
    nis_[static_cast<std::size_t>(id)]->tick(now_);
  });
  for_each_hot(sh, kRouterBits, [this](NodeId id) {
    routers_[static_cast<std::size_t>(id)]->tick(now_);
  });
}

void Network::tick_phase2(int s) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];

  // Import wake-ups other shards produced for our nodes this cycle.  Fixed
  // scan order (ascending producer shard) keeps wheel bucket contents
  // deterministic; bucket order cannot affect results anyway because
  // mark_hot is idempotent.
  if (shards_.size() > 1) {
    for (const Shard& other : shards_) {
      if (&other == &sh) continue;
      for (const WakeEvent& e : other.outbox)
        if (shard_of_[e.enc >> 1] == static_cast<std::uint32_t>(s))
          schedule_local(sh, e.enc, e.at);
    }
  }

  // Cool nodes reporting no work; re-arm their wake-up at the earliest
  // pending input event (all pipe latencies are >= 1, so after this cycle's
  // producers ran every pending event is strictly in the future; the phase
  // barrier made all cross-shard pushes visible).  Cooling a node touches
  // only its own bit and wheel entry, so the walk order cannot affect
  // results.
  const auto cool = [&](std::uint32_t enc, Cycle next_event) {
    clear_hot(sh, enc);
    schedule_local(sh, enc, next_event);
  };
  for_each_hot(sh, kNiBits, [&](NodeId id) {
    const NetworkInterface& ni = *nis_[static_cast<std::size_t>(id)];
    if (!ni.busy_next_cycle())
      cool((static_cast<std::uint32_t>(id) << 1) | 1u, ni.next_input_event());
  });
  for_each_hot(sh, kRouterBits, [&](NodeId id) {
    const Router& r = *routers_[static_cast<std::size_t>(id)];
    if (!r.busy_next_cycle())
      cool(static_cast<std::uint32_t>(id) << 1, r.next_input_event());
  });
}

void Network::run(Cycle n) {
  for (Cycle i = 0; i < n; ++i) tick();
}

bool Network::drained() const {
  // A flit lives in a router buffer or a flit pipe from the cycle its NI
  // injects it until the cycle an NI ejects it, so a zero tally means both
  // are empty — and then no router can hold a VC or a switch grant either,
  // unless a packet is still being injected, which keeps its NI non-idle.
  // Cold NIs are idle (they cool only when !busy_next_cycle(), and new
  // work wakes them), so only hot NIs need a look.
  std::int64_t flits = 0;
  for (const Shard& sh : shards_) flits += sh.flits;
  NOCS_ENSURES(flits >= 0);
  if (flits != 0) return false;
  bool idle = true;
  for (const Shard& sh : shards_) {
    for_each_hot(sh, kNiBits, [&](NodeId id) {
      idle = idle && nis_[static_cast<std::size_t>(id)]->idle();
    });
    if (!idle) return false;
  }
  NOCS_ASSERT(drained_slow());
  return true;
}

bool Network::drained_slow() const {
  for (const auto& r : routers_)
    if (!r->drained()) return false;
  for (const auto& ni : nis_)
    if (!ni->idle()) return false;
  for (const auto& p : flit_pipes_)
    if (!p->empty()) return false;
  return true;
}

RouterCounters Network::total_counters() const {
  RouterCounters total;
  for (const auto& r : routers_) {
    r->sync_counters(now_);
    total += r->counters();
  }
  return total;
}

std::vector<RouterCounters> Network::per_router_counters() const {
  std::vector<RouterCounters> out;
  out.reserve(routers_.size());
  for (const auto& r : routers_) {
    r->sync_counters(now_);
    out.push_back(r->counters());
  }
  return out;
}

void Network::reset_counters() {
  for (auto& r : routers_) {
    // Advance the lazy accounting to `now` first so the zeroed counters
    // cover exactly the cycles from this point on.
    r->sync_counters(now_);
    r->reset_counters();
  }
}

void Network::save_state(snapshot::Writer& w) const {
  // Per-shard deferring collectors are drained into the master at every
  // tick boundary, so between ticks they must be empty — the checkpoint
  // only serializes the master and stays thread-count independent.
  for (const Shard& sh : shards_)
    NOCS_EXPECTS(!sh.stats.deferring() || sh.stats.deferred_empty());

  w.begin_section("network");

  // Topology/configuration fingerprint: restore verifies the destination
  // network was built from the same parameters, otherwise the serialized
  // per-VC and per-pipe state would be reinterpreted against the wrong
  // structures.
  w.i64(params_.width);
  w.i64(params_.height);
  w.i64(params_.num_vcs);
  w.i64(params_.vc_depth);
  w.i64(params_.packet_length);
  w.i64(params_.link_latency);
  w.i64(params_.wakeup_latency);
  w.i64(params_.gate_idle_threshold);
  w.i64(params_.pipeline_stages);
  w.i64(params_.num_classes);
  // Graph fingerprint (format v3): a snapshot can only be restored into a
  // network wired from the identical topology — same nodes, coordinates,
  // ports, and link table in the same order.
  w.u64(topo_.fingerprint());
  w.i64(static_cast<std::int64_t>(endpoints_.size()));
  for (const NodeId e : endpoints_) w.i64(e);
  w.i64(static_cast<std::int64_t>(flit_pipes_.size()));
  w.i64(static_cast<std::int64_t>(credit_pipes_.size()));

  w.u64(now_);
  for (const auto& r : routers_) r->save_state(w);
  for (const auto& ni : nis_) ni->save_state(w);
  const auto save_flit = [](snapshot::Writer& sw, const Flit& f) {
    save(sw, f);
  };
  const auto save_credit = [](snapshot::Writer& sw, const Credit& c) {
    save(sw, c);
  };
  for (const auto& p : flit_pipes_) p->save_state(w, save_flit);
  for (const auto& p : credit_pipes_) p->save_state(w, save_credit);
  stats_.save_state(w);
  w.end_section();
}

void Network::load_state(snapshot::Reader& r) {
  r.begin_section("network");

  const bool fingerprint_ok =
      r.i64() == params_.width && r.i64() == params_.height &&
      r.i64() == params_.num_vcs && r.i64() == params_.vc_depth &&
      r.i64() == params_.packet_length && r.i64() == params_.link_latency &&
      r.i64() == params_.wakeup_latency &&
      r.i64() == params_.gate_idle_threshold &&
      r.i64() == params_.pipeline_stages && r.i64() == params_.num_classes;
  if (!fingerprint_ok)
    throw snapshot::SnapshotError(
        "checkpoint network parameters disagree with this network's "
        "configuration");
  if (r.u64() != topo_.fingerprint())
    throw snapshot::SnapshotError(
        "checkpoint topology fingerprint disagrees with this network's "
        "graph");
  const auto num_endpoints = r.i64();
  if (num_endpoints != static_cast<std::int64_t>(endpoints_.size()))
    throw snapshot::SnapshotError(
        "checkpoint endpoint count disagrees with this network's "
        "configuration");
  for (const NodeId e : endpoints_)
    if (r.i64() != e)
      throw snapshot::SnapshotError(
          "checkpoint endpoint set disagrees with this network's "
          "configuration");
  if (r.i64() != static_cast<std::int64_t>(flit_pipes_.size()) ||
      r.i64() != static_cast<std::int64_t>(credit_pipes_.size()))
    throw snapshot::SnapshotError(
        "checkpoint channel count disagrees with this network's topology");

  now_ = r.u64();
  for (auto& rt : routers_) rt->load_state(r);
  for (auto& ni : nis_) ni->load_state(r);
  const auto load_flit = [](snapshot::Reader& sr, Flit& f) { load(sr, f); };
  const auto load_credit = [](snapshot::Reader& sr, Credit& c) {
    load(sr, c);
  };
  for (auto& p : flit_pipes_) p->load_state(r, load_flit);
  for (auto& p : credit_pipes_) p->load_state(r, load_credit);
  stats_.load_state(r);
  r.end_section();

  // Reset the fast-path scheduler conservatively: mark every node hot and
  // drop all pending wake-ups (rebuild_shards does exactly that, keeping
  // the current thread count).  Ticking a quiescent node is a no-op beyond
  // leakage accounting, which sync_counters() reproduces exactly, so this
  // is bit-identical to resuming the saved wheel — nodes with no work
  // simply cool again after one tick.  It also makes restoring under a
  // different sim_threads than the checkpoint was written with exact.
  // The flit tally has no snapshot field: recount it from the restored
  // router buffers and flit pipes, the only places a flit lives between
  // injection and ejection.
  std::int64_t in_flight = 0;
  for (const auto& rt : routers_) in_flight += rt->buffered_flits();
  for (const auto& p : flit_pipes_)
    in_flight += static_cast<std::int64_t>(p->size());
  rebuild_shards(in_flight);
}

}  // namespace nocs::noc
