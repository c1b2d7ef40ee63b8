// Golden-digest regression tests: small fixed scenarios whose simulated
// statistics are hashed (FNV-1a over the exact bits) and compared with
// constants recorded from a known-good build.  They pin router behaviour
// the nocbench workloads never reach — the 3-stage pipeline (VA before SA
// in one cycle), request/reply message classes, a 32-port router, the
// fault oracle (reroutes + link corruption), dynamic power gating, and
// the sharded tick — so a hot-path rewrite that changes any arbitration
// outcome, counter or statistic fails here.
//
// Run:         ctest --test-dir build -L golden --output-on-failure
// Regenerate:  NOCS_GOLDEN_PRINT=1 build/tests/test_golden
//              prints every scenario's digest; paste the values into
//              kGolden below.  Regenerating means simulated outputs moved
//              on purpose: record why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "fault/fault_injector.hpp"
#include "noc/network.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "sprint/network_builder.hpp"

namespace nocs {
namespace {

/// FNV-1a over 64-bit words (doubles contribute their exact bit pattern).
struct Digest {
  std::uint64_t h = 1469598103934665603ull;

  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  void add(const noc::RouterCounters& c) {
    for (std::uint64_t v :
         {c.buffer_writes, c.buffer_reads, c.xbar_traversals, c.vc_allocs,
          c.sa_arbitrations, c.link_flits, c.active_cycles, c.gated_cycles,
          c.waking_cycles, c.wake_events, c.idle_active_cycles,
          c.flits_corrupted, c.reroutes, c.wake_failures, c.mc_replications,
          c.mc_flits})
      add(v);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

/// Digest of one finished run: latency moments and quantiles, packet
/// counts, resilience activity, and every router's counters.
std::string digest_of(const noc::Network& net, const noc::SimResults& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.cycles));
  d.add(r.packets_generated);
  d.add(r.packets_ejected);
  d.add(r.avg_packet_latency);
  d.add(r.avg_network_latency);
  d.add(r.p50_latency);
  d.add(r.p99_latency);
  d.add(r.max_packet_latency);
  d.add(r.avg_hops);
  d.add(r.accepted_rate);
  d.add(static_cast<std::uint64_t>(r.saturated));
  d.add(static_cast<std::uint64_t>(r.histogram_saturated));
  d.add(static_cast<std::uint64_t>(r.hung));
  d.add(r.counters);
  const noc::ResilienceCounters& res = r.resilience;
  for (std::uint64_t v :
       {res.retransmissions, res.timeouts, res.corrupted_packets,
        res.dropped_packets, res.duplicates, res.acks_sent, res.nacks_sent})
    d.add(v);
  for (const noc::RouterCounters& c : net.per_router_counters()) d.add(c);
  return d.hex();
}

/// Recorded digests, one per scenario.
const std::map<std::string, std::string> kGolden = {
    {"pipeline3", "cd948919f8b36f04"},
    {"request_reply", "478094786a214d85"},
    {"hamming32", "9d9a86c0eef5ccdd"},
    {"fault_oracle", "5ae1121e5b5145da"},
    {"dynamic_gating", "d5ba42d297b4f87e"},
    {"sprint8x8", "4020a2d46f0fbfc0"},
};

void expect_golden(const std::string& name, const std::string& actual) {
  if (std::getenv("NOCS_GOLDEN_PRINT") != nullptr)
    std::printf("    {\"%s\", \"%s\"},\n", name.c_str(), actual.c_str());
  EXPECT_EQ(actual, kGolden.at(name)) << "scenario " << name;
}

noc::SimConfig short_sim(double rate) {
  noc::SimConfig sim;
  sim.warmup = 300;
  sim.measure = 1500;
  sim.drain_max = 20000;
  sim.injection_rate = rate;
  return sim;
}

/// Every node of a Table 1 (4x4) mesh active under XY routing.
struct MeshRig {
  noc::XyRouting xy;
  std::unique_ptr<noc::Network> net;

  explicit MeshRig(const noc::NetworkParams& p)
      : net(std::make_unique<noc::Network>(p, &xy)) {
    net->set_endpoints(p.shape().all_nodes(),
                       noc::make_traffic("uniform", p.num_nodes()));
    net->set_seed(11);
  }
};

TEST(Golden, ThreeStagePipeline) {
  noc::NetworkParams p;
  p.pipeline_stages = 3;
  MeshRig rig(p);
  const noc::SimResults r = noc::run_simulation(*rig.net, short_sim(0.25));
  EXPECT_GT(r.counters.vc_allocs, 0u);
  expect_golden("pipeline3", digest_of(*rig.net, r));
}

TEST(Golden, RequestReplyTwoClasses) {
  noc::NetworkParams p;
  p.num_classes = 2;  // 4 VCs -> 2 per class
  MeshRig rig(p);
  rig.net->set_request_reply(/*request_length=*/1, /*reply_length=*/5);
  const noc::SimResults r = noc::run_simulation(*rig.net, short_sim(0.1));
  EXPECT_EQ(r.packets_generated, r.packets_ejected);
  expect_golden("request_reply", digest_of(*rig.net, r));
}

TEST(Golden, ThirtyTwoPortHammingRouter) {
  // hamming(2, 31): every router has 30 row neighbours, 1 column neighbour
  // and the local port — 32 ports, so the allocator masks use bit 31.
  noc::NetworkParams p;
  p.width = 31;
  p.height = 2;
  const noc::Topology topo = noc::Topology::hamming(2, 31);
  sprint::NetworkBundle b =
      sprint::make_topology_sprinting_network(p, topo, 62, "uniform", 5);
  EXPECT_EQ(b.network->router(0).num_ports(), 32);
  const noc::SimResults r = noc::run_simulation(*b.network, short_sim(0.3));
  EXPECT_EQ(r.packets_generated, r.packets_ejected);
  expect_golden("hamming32", digest_of(*b.network, r));
}

TEST(Golden, FaultOracleReroutesAndCorrupts) {
  noc::NetworkParams p;
  sprint::NetworkBundle b =
      sprint::make_noc_sprinting_network(p, 8, "uniform", 3);
  fault::FaultParams fp;
  fp.enabled = true;
  fp.seed = 42;
  fp.flip_rate = 0.002;
  fp.drop_rate = 0.01;
  fp.link_down_rate = 0.002;
  fp.link_down_cycles = 30;
  fp.ack_timeout = 200;
  fp.max_backoff = 2000;
  fault::FaultInjector injector(p.shape(), fp);
  const noc::ProtectionParams prot = fp.protection();
  b.network->enable_resilience(&injector, &prot);
  noc::SimConfig sim = short_sim(0.15);
  sim.watchdog_cycles = 50000;
  const noc::SimResults r = noc::run_simulation(*b.network, sim);
  EXPECT_GT(r.counters.reroutes, 0u);
  EXPECT_GT(r.counters.flits_corrupted, 0u);
  EXPECT_FALSE(r.hung);
  expect_golden("fault_oracle", digest_of(*b.network, r));
}

TEST(Golden, DynamicGating) {
  noc::NetworkParams p;
  p.width = 8;
  p.height = 8;
  sprint::NetworkBundle b =
      sprint::make_full_sprinting_network(p, 16, "uniform", 9);
  b.network->set_dynamic_gating(true);
  const noc::SimResults r = noc::run_simulation(*b.network, short_sim(0.1));
  EXPECT_GT(r.counters.wake_events, 0u);
  EXPECT_GT(r.counters.gated_cycles, 0u);
  expect_golden("dynamic_gating", digest_of(*b.network, r));
}

TEST(Golden, SprintLevel8x8AnyThreadCount) {
  noc::NetworkParams p;
  p.width = 8;
  p.height = 8;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(threads));
    sprint::NetworkBundle b =
        sprint::make_noc_sprinting_network(p, 16, "uniform", 17);
    b.network->set_sim_threads(threads);
    ASSERT_EQ(b.network->sim_threads(), threads);
    const noc::SimResults r = noc::run_simulation(*b.network, short_sim(0.2));
    expect_golden("sprint8x8", digest_of(*b.network, r));
  }
}

}  // namespace
}  // namespace nocs
