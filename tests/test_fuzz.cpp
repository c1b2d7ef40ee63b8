// Randomized configuration fuzzing: flit conservation and drain
// invariants must hold for every random combination of mesh shape, VC
// structure, pipeline depth, message classes, traffic pattern, load, and
// sprint level.  A single violated invariant aborts inside the simulator
// (contract checks) or fails the conservation equations here.  The
// network fuzzers also compare Network::drained() with the full
// drained_slow() scan after every tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "drain_agreement.hpp"
#include "fault/fault_injector.hpp"
#include "mem/mem_subsystem.hpp"
#include "mem/tile_driver.hpp"
#include "noc/routing.hpp"
#include "noc/simulator.hpp"
#include "serve/protocol.hpp"
#include "sprint/network_builder.hpp"

namespace nocs {
namespace {

struct FuzzCase {
  noc::NetworkParams params;
  std::string traffic;
  double rate;
  int level;      // 0 = full network, no sprint
  bool protocol;
  std::uint64_t seed;
};

FuzzCase random_case(Rng& rng) {
  FuzzCase c;
  c.params.width = rng.uniform_range(2, 6);
  c.params.height = rng.uniform_range(1, 5);
  if (c.params.width * c.params.height < 4) c.params.height += 2;
  c.params.num_classes = rng.bernoulli(0.4) ? 2 : 1;
  c.params.num_vcs = c.params.num_classes * rng.uniform_range(1, 3);
  c.params.vc_depth = rng.uniform_range(1, 6);
  c.params.packet_length = rng.uniform_range(1, 8);
  c.params.pipeline_stages = rng.bernoulli(0.5) ? 3 : 5;
  c.params.link_latency = rng.uniform_range(1, 3);
  const char* kinds[] = {"uniform", "neighbor", "transpose",
                         "bitcomp", "hotspot", "shuffle"};
  c.traffic = kinds[rng.uniform_int(6)];
  c.rate = 0.02 + 0.18 * rng.uniform();
  c.level = rng.bernoulli(0.5)
                ? rng.uniform_range(2, c.params.num_nodes())
                : 0;
  c.protocol = c.params.num_classes == 2 && rng.bernoulli(0.5);
  c.seed = rng.next();
  return c;
}

class Fuzz : public ::testing::TestWithParam<int> {};

TEST_P(Fuzz, ConservationAndDrainHold) {
  Rng rng(0xabcdef00u + static_cast<std::uint64_t>(GetParam()));
  const FuzzCase c = random_case(rng);
  SCOPED_TRACE(::testing::Message()
               << c.params.width << "x" << c.params.height << " vcs="
               << c.params.num_vcs << "/" << c.params.num_classes
               << " depth=" << c.params.vc_depth << " pkt="
               << c.params.packet_length << " pipe="
               << c.params.pipeline_stages << " traffic=" << c.traffic
               << " rate=" << c.rate << " level=" << c.level
               << " protocol=" << c.protocol);

  const noc::XyRouting xy;
  std::unique_ptr<noc::RoutingPolicy> routing;
  std::unique_ptr<noc::Network> net;
  if (c.level > 0) {
    auto bundle = sprint::make_noc_sprinting_network(c.params, c.level,
                                                     c.traffic, c.seed);
    routing = std::move(bundle.routing);
    net = std::move(bundle.network);
  } else {
    net = std::make_unique<noc::Network>(c.params, &xy);
    net->set_endpoints(c.params.shape().all_nodes(),
                       noc::make_traffic(c.traffic, c.params.num_nodes()));
    net->set_seed(c.seed);
  }
  if (c.protocol) net->set_request_reply(1, c.params.packet_length);

  DrainAgreement agree;
  net->set_injection_rate(c.rate);
  for (int i = 0; i < 3000; ++i) {
    net->tick();
    agree.check(*net);
  }
  net->set_injection_rate(0.0);
  bool drained = false;
  for (int i = 0; i < 200000; ++i) {
    net->tick();
    agree.check(*net);
    if (net->drained()) {
      drained = true;
      break;
    }
  }
  agree.expect_agreed();
  ASSERT_TRUE(drained) << "deadlock/livelock";

  const noc::RouterCounters counters = net->total_counters();
  EXPECT_EQ(counters.buffer_writes, counters.buffer_reads);
  EXPECT_EQ(counters.buffer_reads, counters.xbar_traversals);

  std::uint64_t ejected = 0, injected = 0;
  for (NodeId id = 0; id < net->num_nodes(); ++id) {
    ejected += net->ni(id).total_ejected_flits();
    // Generated packet lengths vary in protocol mode; count flits via the
    // conservation identity instead of recomputing lengths.
    injected += net->ni(id).total_generated();
  }
  EXPECT_EQ(counters.xbar_traversals, counters.link_flits + ejected);
  if (!c.protocol) {
    EXPECT_EQ(ejected,
              injected * static_cast<std::uint64_t>(c.params.packet_length));
  } else {
    // requests are 1 flit, replies packet_length; replies == requests.
    EXPECT_EQ(injected % 2, 0u);
    EXPECT_EQ(ejected,
              (injected / 2) *
                  (1u + static_cast<std::uint64_t>(c.params.packet_length)));
  }
}

INSTANTIATE_TEST_SUITE_P(Random, Fuzz, ::testing::Range(0, 40));

// Memory-traffic fuzzing: random tile schedules replayed through random
// controller placements with multicast on or off must always run to
// completion (no protocol deadlock between request and reply classes, no
// stuck phase barrier) and leave the network and every DRAM queue empty.
class MemTrafficFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MemTrafficFuzz, AlwaysCompletesAndDrainsClean) {
  Rng rng(0x3e3d0000u + static_cast<std::uint64_t>(GetParam()));

  noc::NetworkParams p;
  p.width = rng.uniform_range(2, 5);
  p.height = rng.uniform_range(2, 5);
  p.num_classes = 2;
  p.num_vcs = 2 * rng.uniform_range(1, 3);
  p.vc_depth = rng.uniform_range(1, 5);
  p.packet_length = rng.uniform_range(2, 8);

  mem::MemParams mp;
  mp.ctrls = rng.uniform_range(1, 5);
  const mem::MemPlacement placements[] = {mem::MemPlacement::kInterleave,
                                          mem::MemPlacement::kNearest,
                                          mem::MemPlacement::kEdges};
  mp.placement = placements[rng.uniform_int(3)];
  mp.bandwidth = rng.uniform_range(1, 5);
  mp.access_latency = rng.uniform_range(1, 81);
  mp.reply_length = rng.uniform_range(1, 9);
  // Unbounded queue: every request must be served, none rejected.
  mp.queue_capacity = 0;

  // Random schedule: 1-3 layers, each phase 0-200 flits/cycles.
  std::string spec;
  const int layers = rng.uniform_range(1, 4);
  for (int l = 0; l < layers; ++l) {
    if (l > 0) spec += '/';
    spec += "f" + std::to_string(rng.uniform_int(200));
    spec += ",w" + std::to_string(rng.uniform_int(200));
    spec += ",c" + std::to_string(rng.uniform_int(200));
    spec += ",a" + std::to_string(rng.uniform_int(200));
    spec += ",b" + std::to_string(rng.uniform_int(200));
  }
  mem::TileSchedule sched;
  try {
    sched = mem::TileSchedule::parse(spec);
  } catch (const std::invalid_argument&) {
    GTEST_SKIP() << "all-zero schedule " << spec;  // rare and uninteresting
  }

  // Random contiguous group partition over all nodes.
  const int num_nodes = p.num_nodes();
  const int num_groups = rng.uniform_range(1, std::min(num_nodes, 4) + 1);
  std::vector<std::vector<NodeId>> groups(
      static_cast<std::size_t>(num_groups));
  for (NodeId id = 0; id < num_nodes; ++id)
    groups[static_cast<std::size_t>(id % num_groups)].push_back(id);

  const bool multicast = rng.bernoulli(0.5);
  const int threads = rng.bernoulli(0.3) ? 4 : 1;

  SCOPED_TRACE(::testing::Message()
               << p.width << "x" << p.height << " ctrls=" << mp.ctrls
               << " placement=" << mem::to_string(mp.placement)
               << " bw=" << mp.bandwidth << " lat=" << mp.access_latency
               << " reply=" << mp.reply_length << " groups=" << num_groups
               << " mcast=" << multicast << " threads=" << threads
               << " sched=" << spec);

  noc::XyRouting xy;
  noc::Network net(p, &xy);
  if (threads > 1) net.set_sim_threads(threads);
  mem::MemSubsystem mem_sys(net, mp);
  mem::TileTransferDriver driver(net, mem_sys, sched, groups,
                                 {.multicast = multicast,
                                  .chunk_flits = rng.uniform_int(2) == 0
                                                     ? 0
                                                     : rng.uniform_range(2, 9)});
  driver.install();
  const Cycle limit = 2'000'000;
  DrainAgreement agree;
  while (!driver.done() && net.now() < limit) {
    net.tick();
    agree.check(net);
  }
  agree.expect_agreed();
  ASSERT_TRUE(driver.done()) << "deadlock/livelock: stuck at layer "
                             << driver.current_layer();
  EXPECT_TRUE(net.drained());
  EXPECT_TRUE(mem_sys.idle());

  const mem::MemCounters mc = mem_sys.total_counters();
  EXPECT_EQ(mc.rejected, 0u);
  EXPECT_EQ(mc.reads, driver.counters().dram_reads);
  EXPECT_EQ(mc.writes, driver.counters().dram_writes);
  EXPECT_EQ(mc.replies, mc.reads + mc.writes);
  EXPECT_EQ(driver.counters().layers_done,
            static_cast<std::uint64_t>(sched.layers.size()));
}

INSTANTIATE_TEST_SUITE_P(RandomMem, MemTrafficFuzz, ::testing::Range(0, 30));

// Fault fuzzing: random configurations crossed with random (moderate)
// fault schedules.  Whatever the combination, the run must terminate (no
// hang — watchdog-checked), lose zero measured packets (the protection
// layer retransmits until delivery), and reproduce bit-identically.
class FaultFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FaultFuzz, NoHangNoLossAndDeterministic) {
  Rng rng(0xfa017000u + static_cast<std::uint64_t>(GetParam()));
  FuzzCase c = random_case(rng);
  c.protocol = false;      // keep the oracle interaction the variable here
  c.rate *= 0.7;           // retransmissions add load; stay below saturation

  fault::FaultParams fp;
  fp.enabled = true;
  fp.seed = rng.next();
  fp.flip_rate = 0.005 * rng.uniform();
  fp.drop_rate = 0.02 * rng.uniform();
  fp.link_down_rate = 0.001 * rng.uniform();
  fp.link_down_cycles = rng.uniform_range(5, 60);
  fp.ack_timeout = rng.uniform_range(64, 512);
  fp.max_backoff = fp.ack_timeout * rng.uniform_range(4, 16);

  SCOPED_TRACE(::testing::Message()
               << c.params.width << "x" << c.params.height << " pipe="
               << c.params.pipeline_stages << " traffic=" << c.traffic
               << " rate=" << c.rate << " level=" << c.level << " flip="
               << fp.flip_rate << " drop=" << fp.drop_rate << " down="
               << fp.link_down_rate << "/" << fp.link_down_cycles);

  DrainAgreement agree;
  auto run_once = [&]() {
    const noc::XyRouting xy;
    std::unique_ptr<noc::RoutingPolicy> routing;
    std::unique_ptr<noc::Network> net;
    if (c.level > 0) {
      auto bundle = sprint::make_noc_sprinting_network(c.params, c.level,
                                                       c.traffic, c.seed);
      routing = std::move(bundle.routing);
      net = std::move(bundle.network);
    } else {
      net = std::make_unique<noc::Network>(c.params, &xy);
      net->set_endpoints(c.params.shape().all_nodes(),
                         noc::make_traffic(c.traffic, c.params.num_nodes()));
      net->set_seed(c.seed);
    }
    fault::FaultInjector injector(c.params.shape(), fp);
    const noc::ProtectionParams prot = fp.protection();
    net->enable_resilience(&injector, &prot);
    noc::SimConfig sim;
    sim.warmup = 500;
    sim.measure = 2500;
    sim.drain_max = 400000;
    sim.injection_rate = c.rate;
    sim.watchdog_cycles = 30000;
    agree.watch(*net);
    const noc::SimResults r = run_simulation(*net, sim);
    agree.check(*net);
    return r;
  };

  const noc::SimResults r1 = run_once();
  agree.expect_agreed();
  ASSERT_FALSE(r1.hung) << r1.diagnostic;
  ASSERT_FALSE(r1.saturated) << "measured packets lost or drain exceeded";
  EXPECT_EQ(r1.packets_ejected, r1.packets_generated);

  // Same configuration, same seeds: bit-identical replay.
  const noc::SimResults r2 = run_once();
  EXPECT_EQ(r1.packets_generated, r2.packets_generated);
  EXPECT_EQ(r1.avg_packet_latency, r2.avg_packet_latency);
  EXPECT_EQ(r1.p99_latency, r2.p99_latency);
  EXPECT_EQ(r1.resilience.retransmissions, r2.resilience.retransmissions);
  EXPECT_EQ(r1.resilience.corrupted_packets, r2.resilience.corrupted_packets);
  EXPECT_EQ(r1.counters.flits_corrupted, r2.counters.flits_corrupted);
  EXPECT_EQ(r1.counters.reroutes, r2.counters.reroutes);
}

INSTANTIATE_TEST_SUITE_P(RandomFaults, FaultFuzz, ::testing::Range(0, 20));

// --- serve wire-protocol fuzzing --------------------------------------------
//
// The daemon's parser consumes raw socket lines, so it must never throw or
// crash on hostile bytes: every input yields either ok=true or an error
// string.  Three generators: pure random bytes, random JSON-ish token
// soup, and mutated valid requests (the nastiest inputs are almost-valid).

namespace {

std::string random_bytes(Rng& rng) {
  const std::size_t len = rng.uniform_int(200);
  std::string s;
  for (std::size_t i = 0; i < len; ++i)
    s += static_cast<char>(rng.uniform_int(256));
  return s;
}

std::string random_tokens(Rng& rng) {
  static const char* tokens[] = {
      "{",       "}",          "[",        "]",        ":",
      ",",       "\"op\"",     "\"submit\"", "\"kind\"", "\"sweep\"",
      "\"params\"", "\"rates\"", "\"0.1:0.1:0.5\"", "\"priority\"",
      "\"high\"", "\"job\"",   "\"timeout_ms\"", "1e308",  "-0",
      "null",    "true",       "false",    "1234567890123456789",
      "\"\\u0000\"", " ",      "\\",       "\"",
  };
  const std::size_t len = rng.uniform_int(24);
  std::string s;
  for (std::size_t i = 0; i < len; ++i)
    s += tokens[rng.uniform_int(sizeof tokens / sizeof tokens[0])];
  return s;
}

std::string mutated_valid(Rng& rng) {
  static const char* seeds[] = {
      "{\"op\":\"submit\",\"kind\":\"sweep\","
      "\"params\":{\"level\":8,\"rates\":\"0.05:0.05:0.5\"}}",
      "{\"op\":\"submit\",\"kind\":\"selftest\",\"params\":{\"tasks\":4},"
      "\"priority\":\"low\"}",
      "{\"op\":\"wait\",\"job\":\"job-1\",\"timeout_ms\":100}",
      "{\"op\":\"wait\",\"job\":\"job-1\",\"nowait\":true}",
      "{\"op\":\"wait\",\"job\":\"job-1\",\"timeout_ms\":0}",
      "{\"op\":\"watch\",\"job\":\"job-2\",\"every_ms\":50}",
      "{\"op\":\"watch\",\"job\":\"job-2\"}",
      "{\"op\":\"status\"}",
      // Streamed `watch` progress frames as the server emits them: a
      // confused client (or a proxy echoing replies back) may feed these
      // to the request parser verbatim or torn mid-line; it must reject
      // them as errors, never throw.
      "{\"ok\":true,\"event\":\"progress\",\"job\":\"job-1\","
      "\"state\":\"running\",\"cycles\":12345,\"completed_tasks\":1,"
      "\"running_tasks\":2,\"attempt\":1,\"queue_position\":0}",
      "{\"ok\":true,\"event\":\"progress\",\"job\":\"job-9\","
      "\"state\":\"queued\",\"cycles\":0,\"completed_tasks\":0,"
      "\"running_tasks\":0,\"attempt\":1,\"queue_position\":3}",
  };
  std::string s = seeds[rng.uniform_int(sizeof seeds / sizeof seeds[0])];
  const int edits = 1 + static_cast<int>(rng.uniform_int(4));
  for (int i = 0; i < edits && !s.empty(); ++i) {
    const std::size_t pos = rng.uniform_int(s.size());
    switch (rng.uniform_int(3)) {
      case 0: s[pos] = static_cast<char>(rng.uniform_int(256)); break;
      case 1: s.erase(pos, 1); break;
      default: s.insert(pos, 1, static_cast<char>(rng.uniform_int(128)));
    }
  }
  return s;
}

}  // namespace

class ServeProtocolFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ServeProtocolFuzz, ParserNeverThrowsAndErrorsAreActionable) {
  Rng rng(0x5e27eul + static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int i = 0; i < 400; ++i) {
    std::string line;
    switch (i % 3) {
      case 0: line = random_bytes(rng); break;
      case 1: line = random_tokens(rng); break;
      default: line = mutated_valid(rng);
    }
    const serve::ParseResult r = serve::parse_request(line);
    if (r.ok) {
      // Whatever parsed must be a fully validated request: re-submitting
      // through the spec round-trip cannot throw either.
      if (r.request.op == "submit") {
        EXPECT_NO_THROW({
          (void)serve::fingerprint(r.request.spec);
          (void)serve::task_count(r.request.spec);
          (void)serve::spec_from_json(serve::spec_to_json(r.request.spec));
        });
      }
    } else {
      EXPECT_FALSE(r.error.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(HostileLines, ServeProtocolFuzz,
                         ::testing::Range(0, 10));

// A `watch` stream interleaves progress frames with the final status on
// one connection.  Model a client that loses line framing: every torn
// prefix/suffix and every splice of two frames must come back as a
// parse error, never an exception or a bogus accepted request.
TEST(ServeWatchStreamFuzz, TornAndInterleavedProgressFramesNeverThrow) {
  const std::string frame =
      "{\"ok\":true,\"event\":\"progress\",\"job\":\"job-1\","
      "\"state\":\"running\",\"cycles\":777,\"completed_tasks\":0,"
      "\"running_tasks\":1,\"attempt\":2,\"queue_position\":1}";
  const std::string final_status =
      "{\"ok\":true,\"job\":\"job-1\",\"state\":\"done\",\"result\":{}}";
  for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
    for (const std::string& line :
         {frame.substr(0, cut), frame.substr(cut),
          frame.substr(0, cut) + final_status,
          final_status + frame.substr(cut)}) {
      const serve::ParseResult r = serve::parse_request(line);
      EXPECT_FALSE(r.ok) << "accepted reply bytes as a request: " << line;
      EXPECT_FALSE(r.error.empty());
    }
  }
}

}  // namespace
}  // namespace nocs
