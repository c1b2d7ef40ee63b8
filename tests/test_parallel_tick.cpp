// Tests for deterministic intra-simulation parallelism: the sharded
// barrier-synchronous tick must produce bit-identical SimResults for every
// sim_threads value — across plain, statically gated, dynamically gated,
// faulted, and traced runs — and a checkpoint written under one thread
// count must restore bit-identically under another.
//
// These run under the `parallel` ctest label so the ThreadSanitizer CI job
// can target exactly the multi-threaded surface.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/snapshot.hpp"
#include "common/trace.hpp"
#include "drain_agreement.hpp"
#include "fault/fault_injector.hpp"
#include "noc/simulator.hpp"
#include "sprint/network_builder.hpp"

namespace nocs {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

fault::FaultParams storm_params() {
  fault::FaultParams fp;
  fp.enabled = true;
  fp.seed = 42;
  fp.flip_rate = 0.002;
  fp.drop_rate = 0.01;
  fp.link_down_rate = 0.0005;
  fp.link_down_cycles = 30;
  fp.ack_timeout = 200;
  fp.max_backoff = 2000;
  return fp;
}

struct Rig {
  std::unique_ptr<noc::RoutingPolicy> routing;
  std::unique_ptr<noc::Network> net;
  std::unique_ptr<fault::FaultInjector> injector;
};

enum class Scheme {
  kSprint,        // CDOR sprint region, dark rest statically gated
  kFullDynamic,   // all routers on, dynamic power gating enabled
};

/// An 8x8 mesh so thread counts up to 8 give every shard a real row-band
/// (the 4x4 Table 1 mesh would clamp sim_threads to 4).
Rig make_rig(Scheme scheme, bool faults, std::uint64_t seed = 7) {
  noc::NetworkParams params;
  params.width = 8;
  params.height = 8;
  auto bundle =
      scheme == Scheme::kSprint
          ? sprint::make_noc_sprinting_network(params, 16, "uniform", seed)
          : sprint::make_full_sprinting_network(params, 16, "uniform", seed);
  Rig rig;
  rig.routing = std::move(bundle.routing);
  rig.net = std::move(bundle.network);
  if (scheme == Scheme::kFullDynamic) rig.net->set_dynamic_gating(true);
  if (faults) {
    rig.injector =
        std::make_unique<fault::FaultInjector>(params.shape(), storm_params());
    const noc::ProtectionParams prot = storm_params().protection();
    rig.net->enable_resilience(rig.injector.get(), &prot);
  }
  return rig;
}

noc::SimConfig short_sim(bool faults) {
  noc::SimConfig sim;
  sim.warmup = 300;
  sim.measure = 1200;
  sim.drain_max = 20000;
  sim.injection_rate = 0.15;
  if (faults) sim.watchdog_cycles = 50000;
  return sim;
}

noc::CheckpointConfig ckpt_for(Rig& rig, noc::CheckpointConfig c) {
  if (rig.injector != nullptr)
    c.extras.emplace_back("fault", rig.injector.get());
  return c;
}

void expect_identical(const noc::SimResults& a, const noc::SimResults& b) {
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.avg_network_latency, b.avg_network_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.packets_ejected, b.packets_ejected);
  EXPECT_EQ(a.accepted_rate, b.accepted_rate);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.histogram_saturated, b.histogram_saturated);
  EXPECT_EQ(a.max_packet_latency, b.max_packet_latency);
  EXPECT_EQ(a.hung, b.hung);
  EXPECT_EQ(a.interrupted, b.interrupted);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.counters.buffer_writes, b.counters.buffer_writes);
  EXPECT_EQ(a.counters.buffer_reads, b.counters.buffer_reads);
  EXPECT_EQ(a.counters.xbar_traversals, b.counters.xbar_traversals);
  EXPECT_EQ(a.counters.vc_allocs, b.counters.vc_allocs);
  EXPECT_EQ(a.counters.sa_arbitrations, b.counters.sa_arbitrations);
  EXPECT_EQ(a.counters.link_flits, b.counters.link_flits);
  EXPECT_EQ(a.counters.active_cycles, b.counters.active_cycles);
  EXPECT_EQ(a.counters.gated_cycles, b.counters.gated_cycles);
  EXPECT_EQ(a.counters.waking_cycles, b.counters.waking_cycles);
  EXPECT_EQ(a.counters.wake_events, b.counters.wake_events);
  EXPECT_EQ(a.counters.idle_active_cycles, b.counters.idle_active_cycles);
  EXPECT_EQ(a.counters.flits_corrupted, b.counters.flits_corrupted);
  EXPECT_EQ(a.counters.reroutes, b.counters.reroutes);
  EXPECT_EQ(a.counters.wake_failures, b.counters.wake_failures);
  EXPECT_EQ(a.resilience.retransmissions, b.resilience.retransmissions);
  EXPECT_EQ(a.resilience.timeouts, b.resilience.timeouts);
  EXPECT_EQ(a.resilience.corrupted_packets, b.resilience.corrupted_packets);
  EXPECT_EQ(a.resilience.dropped_packets, b.resilience.dropped_packets);
  EXPECT_EQ(a.resilience.duplicates, b.resilience.duplicates);
  EXPECT_EQ(a.resilience.acks_sent, b.resilience.acks_sent);
  EXPECT_EQ(a.resilience.nacks_sent, b.resilience.nacks_sent);
}

noc::SimResults run_with_threads(int sim_threads, Scheme scheme, bool faults) {
  Rig rig = make_rig(scheme, faults);
  rig.net->set_sim_threads(sim_threads);
  EXPECT_EQ(rig.net->sim_threads(), sim_threads);
  return noc::run_simulation(*rig.net, short_sim(faults));
}

/// The core guarantee, exercised for one network/fault configuration:
/// sim_threads = 2, 4, 8 all reproduce the serial run bit-for-bit.
void check_thread_counts(Scheme scheme, bool faults, const std::string& tag) {
  SCOPED_TRACE(tag);
  const noc::SimResults reference = run_with_threads(1, scheme, faults);
  for (const int n : {2, 4, 8}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(n));
    expect_identical(run_with_threads(n, scheme, faults), reference);
  }
}

// --- bit-identical across thread counts -------------------------------------

TEST(ParallelTick, BitIdenticalSprintRegion) {
  check_thread_counts(Scheme::kSprint, /*faults=*/false, "sprint");
}

TEST(ParallelTick, BitIdenticalWithDynamicGating) {
  check_thread_counts(Scheme::kFullDynamic, /*faults=*/false, "dynamic");
}

TEST(ParallelTick, BitIdenticalWithFaults) {
  check_thread_counts(Scheme::kSprint, /*faults=*/true, "faults");
}

TEST(ParallelTick, BitIdenticalWithFaultsAndDynamicGating) {
  check_thread_counts(Scheme::kFullDynamic, /*faults=*/true, "faults_dyn");
}

// --- tracing -----------------------------------------------------------------

TEST(ParallelTick, BitIdenticalWithTracingActive) {
  // A live trace session samples counters mid-run; it must neither perturb
  // the parallel results nor crash under sharded ticking.  (Trace event
  // *order* within a cycle is not part of the determinism contract — the
  // SimResults are.)
  const noc::SimResults reference =
      run_with_threads(1, Scheme::kSprint, false);

  const std::string path = tmp_path("parallel_trace.json");
  ASSERT_TRUE(trace::begin(path));
  Rig rig = make_rig(Scheme::kSprint, false);
  rig.net->set_sim_threads(4);
  noc::SimConfig sim = short_sim(false);
  sim.trace_sample = 64;
  const noc::SimResults traced = noc::run_simulation(*rig.net, sim);
  EXPECT_GT(trace::event_count(), 0u);
  ASSERT_TRUE(trace::end());

  expect_identical(traced, reference);
  std::remove(path.c_str());
}

// --- checkpoint/restore across thread counts ---------------------------------

TEST(ParallelTick, CheckpointUnderFourThreadsRestoresUnderTwo) {
  // Write a checkpoint mid-measurement while ticking with 4 shards, then
  // restore it into a 2-shard network (and a serial one): the conservative
  // scheduler reset on load_state makes the thread count a pure execution
  // detail, so both must finish bit-identical to the uninterrupted serial
  // run.
  const noc::SimConfig sim = short_sim(false);
  const Cycle cut = 300 + 600;
  const std::string path = tmp_path("parallel_resume.nocsnap");

  const noc::SimResults reference =
      run_with_threads(1, Scheme::kSprint, false);

  Rig first = make_rig(Scheme::kSprint, false);
  first.net->set_sim_threads(4);
  noc::CheckpointConfig stop;
  stop.save_path = path;
  stop.stop_at = cut;
  const noc::SimResults partial =
      noc::run_simulation(*first.net, sim, ckpt_for(first, stop));
  ASSERT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.cycles, cut);

  for (const int n : {2, 1}) {
    SCOPED_TRACE("restore with sim_threads=" + std::to_string(n));
    Rig second = make_rig(Scheme::kSprint, false);
    second.net->set_sim_threads(n);
    noc::CheckpointConfig resume;
    resume.restore_path = path;
    // load_state recounts the flit tally from the restored buffers and
    // pipes; drained() must agree with the full scan from the first tick.
    DrainAgreement agree;
    agree.watch(*second.net);
    const noc::SimResults resumed =
        noc::run_simulation(*second.net, sim, ckpt_for(second, resume));
    agree.expect_agreed();
    EXPECT_FALSE(resumed.interrupted);
    expect_identical(resumed, reference);
  }
  std::remove(path.c_str());
}

TEST(ParallelTick, FaultedCheckpointRestoresAcrossThreadCounts) {
  const noc::SimConfig sim = short_sim(true);
  const Cycle cut = 300 + 600;
  const std::string path = tmp_path("parallel_resume_faults.nocsnap");

  const noc::SimResults reference = run_with_threads(1, Scheme::kSprint, true);

  Rig first = make_rig(Scheme::kSprint, true);
  first.net->set_sim_threads(2);
  noc::CheckpointConfig stop;
  stop.save_path = path;
  stop.stop_at = cut;
  const noc::SimResults partial =
      noc::run_simulation(*first.net, sim, ckpt_for(first, stop));
  ASSERT_TRUE(partial.interrupted);

  Rig second = make_rig(Scheme::kSprint, true);
  second.net->set_sim_threads(4);
  noc::CheckpointConfig resume;
  resume.restore_path = path;
  const noc::SimResults resumed =
      noc::run_simulation(*second.net, sim, ckpt_for(second, resume));
  EXPECT_FALSE(resumed.interrupted);
  expect_identical(resumed, reference);
  std::remove(path.c_str());
}

// --- API edges ----------------------------------------------------------------

TEST(ParallelTick, ThreadCountClampsToMeshHeight) {
  Rig rig = make_rig(Scheme::kSprint, false);
  rig.net->set_sim_threads(64);  // 8 rows -> at most 8 row-band shards
  EXPECT_EQ(rig.net->sim_threads(), 8);
  rig.net->set_sim_threads(3);   // uneven row split is fine
  EXPECT_EQ(rig.net->sim_threads(), 3);
  expect_identical(noc::run_simulation(*rig.net, short_sim(false)),
                   run_with_threads(1, Scheme::kSprint, false));
}

TEST(ParallelTick, SwitchingThreadCountMidRunStaysDeterministic) {
  // set_sim_threads at a cycle boundary is legal (conservative reset); a
  // run that flips 1 -> 4 -> 2 between bursts matches the all-serial run.
  const auto run_phased = [](const std::vector<int>& threads_per_leg) {
    Rig rig = make_rig(Scheme::kSprint, false);
    rig.net->set_injection_rate(0.15);
    for (const int n : threads_per_leg) {
      rig.net->set_sim_threads(n);
      rig.net->run(500);
    }
    rig.net->set_injection_rate(0.0);
    Cycle budget = 100000;
    while (!rig.net->drained() && budget-- > 0) rig.net->tick();
    EXPECT_TRUE(rig.net->drained());
    return rig.net->total_counters().link_flits;
  };
  EXPECT_EQ(run_phased({1, 4, 2}), run_phased({1, 1, 1}));
}

TEST(ParallelTick, DefaultThreadCountReadsEnvironment) {
  EXPECT_GE(default_sim_thread_count(), 1);
}

// --- drained() fast path -------------------------------------------------------

TEST(ParallelTick, DrainedShortCircuitAgreesWithScan) {
  // drained() answers from the per-shard flit tallies and the hot NIs; it
  // must equal the full drained_slow() scan after every tick, across load
  // and quiescence, serial and sharded — including right after a re-shard
  // mid-flight, which carries the tally over to the new shards.
  for (const int n : {1, 4}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(n));
    Rig rig = make_rig(Scheme::kSprint, false);
    rig.net->set_sim_threads(n);
    rig.net->set_injection_rate(0.2);
    DrainAgreement agree;
    for (int i = 0; i < 400; ++i) {
      rig.net->tick();
      agree.check(*rig.net);
      if (i == 200) rig.net->set_sim_threads(5 - n);  // 1 <-> 4
    }
    rig.net->set_injection_rate(0.0);
    Cycle budget = 100000;
    while (!rig.net->drained() && budget-- > 0) {
      rig.net->tick();
      agree.check(*rig.net);
    }
    EXPECT_TRUE(rig.net->drained());
    agree.expect_agreed();
  }
}

}  // namespace
}  // namespace nocs
