#include "mem/tile_driver.hpp"

#include <algorithm>

namespace nocs::mem {

TileTransferDriver::TileTransferDriver(noc::Network& net, MemSubsystem& mem,
                                       TileSchedule sched,
                                       std::vector<std::vector<NodeId>> groups,
                                       TileDriverOptions opts)
    : net_(&net),
      mem_(&mem),
      sched_(std::move(sched)),
      groups_(std::move(groups)),
      opts_(opts) {
  sched_.validate();
  NOCS_EXPECTS(!groups_.empty());
  NOCS_EXPECTS(opts_.chunk_flits >= 0);
  for (const auto& g : groups_) NOCS_EXPECTS(!g.empty());
  group_ids_.reserve(groups_.size());
  for (const auto& g : groups_)
    group_ids_.push_back(net.add_multicast_group(g));
  net.set_multicast(opts_.multicast);
  advance(/*step=*/false);
}

void TileTransferDriver::install() {
  net_->set_pre_tick_hook([this](Cycle now) { on_pre_tick(now); });
}

void TileTransferDriver::uninstall() { net_->set_pre_tick_hook(nullptr); }

int TileTransferDriver::chunk() const {
  return opts_.chunk_flits > 0 ? opts_.chunk_flits
                               : net_->params().packet_length;
}

int TileTransferDriver::split(int total, int ways) {
  return (total + ways - 1) / ways;
}

int TileTransferDriver::phase_volume(Phase p, const TileLayer& l) const {
  switch (p) {
    case Phase::kFetch: return l.fetch_flits;
    case Phase::kWeights:
      // A broadcast needs someone to broadcast to; with only 1-member
      // groups the phase is structurally empty regardless of volume.
      for (const auto& g : groups_)
        if (g.size() > 1) return l.weight_flits;
      return 0;
    case Phase::kCompute: return l.compute_cycles;
    case Phase::kActs:
      // With a single group every activation would be a self-send.
      return groups_.size() > 1 ? l.act_flits : 0;
    case Phase::kWriteback: return l.writeback_flits;
    case Phase::kDone: return 0;
  }
  NOCS_UNREACHABLE("phase_volume: bad phase");
}

void TileTransferDriver::advance(bool step) {
  const int num_layers = static_cast<int>(sched_.layers.size());
  while (layer_ < num_layers) {
    if (step) {
      if (phase_ == Phase::kWriteback) {
        phase_ = Phase::kFetch;
        ++layer_;
        ++counters_.layers_done;
        if (layer_ >= num_layers) break;
      } else {
        phase_ = static_cast<Phase>(static_cast<std::uint8_t>(phase_) + 1);
      }
    }
    step = true;
    if (layer_ < num_layers &&
        phase_volume(phase_, sched_.layers[static_cast<std::size_t>(layer_)]) >
            0)
      return;
  }
  phase_ = Phase::kDone;
}

void TileTransferDriver::on_pre_tick(Cycle now) {
  if (phase_ == Phase::kDone) return;
  if (issued_) {
    // A compute phase holds the barrier until the slowest tile's share of
    // the work is done, checked first because it is a compare while
    // drained() walks the hot NIs.  drained() at the cycle boundary means
    // every packet of the current phase was delivered and every
    // controller finished — the barrier between phases.
    if (phase_ == Phase::kCompute && now < compute_until_) return;
    if (!net_->drained()) return;
    issued_ = false;
    advance(/*step=*/true);
    if (phase_ == Phase::kDone) {
      finish_cycle_ = now;
      return;
    }
  }
  issue(now);
  issued_ = true;
}

void TileTransferDriver::issue(Cycle now) {
  const TileLayer& l = sched_.layers[static_cast<std::size_t>(layer_)];
  switch (phase_) {
    case Phase::kFetch: issue_fetch(now, l); return;
    case Phase::kWeights: issue_weights(now, l); return;
    case Phase::kCompute: issue_compute(now, l); return;
    case Phase::kActs: issue_acts(now, l); return;
    case Phase::kWriteback: issue_writeback(now, l); return;
    case Phase::kDone: break;
  }
  NOCS_UNREACHABLE("issue: bad phase");
}

void TileTransferDriver::dram_request(Cycle now, NodeId tile, bool write,
                                      int flits) {
  const NodeId ctrl = mem_->controller_for(tile, dram_seq_++);
  if (ctrl == tile) {
    // The tile hosts the controller: a genuinely local DRAM access that
    // never enters the mesh (and the NoC asserts on self-addressed
    // packets anyway).
    mem_->controller_at(tile)->enqueue_local(now, write, flits);
    ++counters_.local_accesses;
  } else if (write) {
    net_->ni(tile).send_packet(now, ctrl, kMemRequestClass, flits);
  } else {
    net_->ni(tile).send_packet(now, ctrl, kMemRequestClass, 1);
  }
  if (write)
    ++counters_.dram_writes;
  else
    ++counters_.dram_reads;
}

void TileTransferDriver::issue_fetch(Cycle now, const TileLayer& l) {
  // The layer's total fetch volume splits evenly across the group leaders
  // (more groups = more DRAM-level parallelism, the lever sprinting
  // pulls), each leader issuing one read command per reply burst.
  const int reply = mem_->params().reply_length;
  const int per_group = split(l.fetch_flits, static_cast<int>(groups_.size()));
  const int requests = (per_group + reply - 1) / reply;
  for (const auto& g : groups_)
    for (int i = 0; i < requests; ++i)
      dram_request(now, g.front(), /*write=*/false, reply);
}

void TileTransferDriver::issue_weights(Cycle now, const TileLayer& l) {
  const int c = chunk();
  const int per_group = split(l.weight_flits, static_cast<int>(groups_.size()));
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].size() < 2) continue;  // no one to broadcast to
    int remaining = per_group;
    while (remaining > 0) {
      const int len = std::min(remaining, c);
      net_->ni(groups_[g].front())
          .send_multicast(now, group_ids_[g], kMemReplyClass, len);
      ++counters_.weight_mcasts;
      remaining -= len;
    }
  }
}

void TileTransferDriver::issue_compute(Cycle now, const TileLayer& l) {
  // The layer's compute volume splits across every tile; the barrier
  // waits for the (identical) per-tile share.  No packets move, but the
  // powered sub-network keeps leaking — the cost of sprinting wide.
  int total_tiles = 0;
  for (const auto& g : groups_) total_tiles += static_cast<int>(g.size());
  compute_until_ =
      now + static_cast<Cycle>(split(l.compute_cycles, total_tiles));
  counters_.compute_cycles +=
      static_cast<std::uint64_t>(split(l.compute_cycles, total_tiles));
}

void TileTransferDriver::issue_acts(Cycle now, const TileLayer& l) {
  const int c = chunk();
  int total_tiles = 0;
  for (const auto& g : groups_) total_tiles += static_cast<int>(g.size());
  const int per_tile = split(l.act_flits, total_tiles);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const auto& src_group = groups_[g];
    const auto& dst_group = groups_[(g + 1) % groups_.size()];
    for (std::size_t p = 0; p < src_group.size(); ++p) {
      const NodeId src = src_group[p];
      const NodeId dst = dst_group[p % dst_group.size()];
      if (dst == src) continue;  // groups may overlap; never self-send
      int remaining = per_tile;
      while (remaining > 0) {
        const int len = std::min(remaining, c);
        net_->ni(src).send_packet(now, dst, kMemReplyClass, len);
        ++counters_.act_packets;
        remaining -= len;
      }
    }
  }
}

void TileTransferDriver::issue_writeback(Cycle now, const TileLayer& l) {
  // Write bursts must be >= 2 flits so the controller classifies them as
  // writes (a 1-flit packet is a read command).
  const int c = std::max(chunk(), 2);
  const int per_group =
      split(l.writeback_flits, static_cast<int>(groups_.size()));
  for (const auto& g : groups_) {
    int remaining = per_group;
    while (remaining > 0) {
      const int len = std::max(std::min(remaining, c), 2);
      dram_request(now, g.front(), /*write=*/true, len);
      remaining -= len;
    }
  }
}

void TileTransferDriver::save_state(snapshot::Writer& w) const {
  w.begin_section("tile_driver");
  w.i64(layer_);
  w.u8(static_cast<std::uint8_t>(phase_));
  w.b(issued_);
  w.u64(finish_cycle_);
  w.u64(compute_until_);
  w.u64(dram_seq_);
  w.u64(counters_.dram_reads);
  w.u64(counters_.dram_writes);
  w.u64(counters_.weight_mcasts);
  w.u64(counters_.act_packets);
  w.u64(counters_.local_accesses);
  w.u64(counters_.compute_cycles);
  w.u64(counters_.layers_done);
  w.end_section();
}

void TileTransferDriver::load_state(snapshot::Reader& r) {
  r.begin_section("tile_driver");
  layer_ = static_cast<int>(r.i64());
  phase_ = static_cast<Phase>(r.u8());
  issued_ = r.b();
  finish_cycle_ = r.u64();
  compute_until_ = r.u64();
  dram_seq_ = r.u64();
  counters_.dram_reads = r.u64();
  counters_.dram_writes = r.u64();
  counters_.weight_mcasts = r.u64();
  counters_.act_packets = r.u64();
  counters_.local_accesses = r.u64();
  counters_.compute_cycles = r.u64();
  counters_.layers_done = r.u64();
  r.end_section();
}

}  // namespace nocs::mem
