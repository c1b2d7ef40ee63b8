// Tests for the checkpoint/restore subsystem: Writer/Reader framing,
// snapshot-file corruption detection, per-component round trips, the
// bit-identical-resume guarantee of run_simulation (several cut points,
// faults on and off), and the manifest-resumed batch engine (common/batch).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/batch.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "common/stats.hpp"
#include "fault/fault_injector.hpp"
#include "noc/buffer.hpp"
#include "noc/router.hpp"
#include "noc/simulator.hpp"
#include "sprint/network_builder.hpp"
#include "sprint/online_adapt.hpp"
#include "sprint/scenario.hpp"
#include "thermal/grid.hpp"

namespace nocs {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// --- Writer / Reader framing -----------------------------------------------

TEST(SnapshotWriter, PrimitivesRoundTrip) {
  snapshot::Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.b(true);
  w.b(false);
  w.f64(3.141592653589793);
  w.f64(-0.0);
  w.str("hello snapshot");
  w.str("");

  snapshot::Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.f64(), 3.141592653589793);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.str(), "hello snapshot");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SnapshotWriter, SectionsFrameTheirContent) {
  snapshot::Writer w;
  w.begin_section("outer");
  w.u64(1);
  w.begin_section("inner");
  w.str("x");
  w.end_section();
  w.u64(2);
  w.end_section();

  snapshot::Reader r(w.bytes());
  r.begin_section("outer");
  EXPECT_EQ(r.u64(), 1u);
  r.begin_section("inner");
  EXPECT_EQ(r.str(), "x");
  r.end_section();
  EXPECT_EQ(r.u64(), 2u);
  r.end_section();
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SnapshotReader, UnderflowThrows) {
  snapshot::Writer w;
  w.u32(7);
  snapshot::Reader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(r.u8(), snapshot::SnapshotError);
}

TEST(SnapshotReader, WrongSectionNameThrows) {
  snapshot::Writer w;
  w.begin_section("router");
  w.u64(3);
  w.end_section();
  snapshot::Reader r(w.bytes());
  EXPECT_THROW(r.begin_section("network"), snapshot::SnapshotError);
}

TEST(SnapshotReader, ShortSectionReadThrows) {
  snapshot::Writer w;
  w.begin_section("s");
  w.u64(1);
  w.u64(2);
  w.end_section();
  snapshot::Reader r(w.bytes());
  r.begin_section("s");
  EXPECT_EQ(r.u64(), 1u);
  EXPECT_THROW(r.end_section(), snapshot::SnapshotError);
}

// --- snapshot files: atomic write + corruption detection --------------------

snapshot::Writer small_payload() {
  snapshot::Writer w;
  w.begin_section("test");
  w.u64(0x1122334455667788ULL);
  w.str("payload");
  w.end_section();
  return w;
}

TEST(SnapshotFile, RoundTrips) {
  const std::string path = tmp_path("snap_roundtrip.nocsnap");
  ASSERT_TRUE(snapshot::save_file(path, small_payload()));
  snapshot::Reader r = snapshot::load_file(path);
  r.begin_section("test");
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.str(), "payload");
  r.end_section();
  EXPECT_EQ(r.remaining(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotFile, MissingFileThrows) {
  EXPECT_THROW(snapshot::load_file(tmp_path("snap_does_not_exist.nocsnap")),
               snapshot::SnapshotError);
}

std::vector<char> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<char> bytes;
  int c;
  while ((c = std::fgetc(f)) != EOF) bytes.push_back(static_cast<char>(c));
  std::fclose(f);
  return bytes;
}

void spew(const std::string& path, const std::vector<char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

TEST(SnapshotFile, BadMagicRejected) {
  const std::string path = tmp_path("snap_badmagic.nocsnap");
  ASSERT_TRUE(snapshot::save_file(path, small_payload()));
  std::vector<char> bytes = slurp(path);
  bytes[0] = 'X';
  spew(path, bytes);
  EXPECT_THROW(snapshot::load_file(path), snapshot::SnapshotError);
  std::remove(path.c_str());
}

TEST(SnapshotFile, PayloadBitFlipRejected) {
  const std::string path = tmp_path("snap_bitflip.nocsnap");
  ASSERT_TRUE(snapshot::save_file(path, small_payload()));
  std::vector<char> bytes = slurp(path);
  // Header is magic(8) + version(4) + length(8) + checksum(8) = 28 bytes;
  // flip one bit well inside the payload.
  ASSERT_GT(bytes.size(), 40u);
  bytes[36] = static_cast<char>(bytes[36] ^ 0x10);
  spew(path, bytes);
  EXPECT_THROW(snapshot::load_file(path), snapshot::SnapshotError);
  std::remove(path.c_str());
}

TEST(SnapshotFile, TruncationRejected) {
  const std::string path = tmp_path("snap_truncated.nocsnap");
  ASSERT_TRUE(snapshot::save_file(path, small_payload()));
  std::vector<char> bytes = slurp(path);
  bytes.resize(bytes.size() - 5);
  spew(path, bytes);
  EXPECT_THROW(snapshot::load_file(path), snapshot::SnapshotError);
  std::remove(path.c_str());
}

// --- component round trips --------------------------------------------------

TEST(SnapshotComponents, RngStateRoundTrips) {
  Rng a(12345);
  for (int i = 0; i < 100; ++i) (void)a.next();
  Rng b(999);
  b.set_state(a.state());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SnapshotComponents, RunningStatRoundTrips) {
  RunningStat s;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) s.add(rng.uniform() * 100.0);

  snapshot::Writer w;
  s.save_state(w);
  RunningStat restored;
  snapshot::Reader r(w.bytes());
  restored.load_state(r);

  EXPECT_EQ(restored.count(), s.count());
  EXPECT_EQ(restored.mean(), s.mean());
  EXPECT_EQ(restored.variance(), s.variance());
  EXPECT_EQ(restored.min(), s.min());
  EXPECT_EQ(restored.max(), s.max());

  // Continuing both must stay bit-identical.
  s.add(42.5);
  restored.add(42.5);
  EXPECT_EQ(restored.mean(), s.mean());
  EXPECT_EQ(restored.variance(), s.variance());
}

TEST(SnapshotComponents, HistogramRoundTrips) {
  Histogram h(1.0, 64);
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) h.add(rng.uniform() * 500.0);

  snapshot::Writer w;
  h.save_state(w);
  Histogram restored(1.0, 64);
  snapshot::Reader r(w.bytes());
  restored.load_state(r);

  EXPECT_EQ(restored.total(), h.total());
  EXPECT_EQ(restored.quantile(0.5), h.quantile(0.5));
  EXPECT_EQ(restored.quantile(0.99), h.quantile(0.99));
  EXPECT_EQ(restored.max_value(), h.max_value());
}

TEST(SnapshotComponents, HistogramShapeMismatchThrows) {
  Histogram h(1.0, 64);
  h.add(3.0);
  snapshot::Writer w;
  h.save_state(w);
  Histogram other(1.0, 32);  // different bin count
  snapshot::Reader r(w.bytes());
  EXPECT_THROW(other.load_state(r), snapshot::SnapshotError);
}

TEST(SnapshotComponents, TemperatureFieldRoundTrips) {
  thermal::TemperatureField field(8, 6, 1, 318.0);
  Rng rng(11);
  for (double& t : field.raw()) t = 300.0 + rng.uniform() * 60.0;

  snapshot::Writer w;
  field.save_state(w);
  thermal::TemperatureField restored(8, 6, 1, 0.0);
  snapshot::Reader r(w.bytes());
  restored.load_state(r);

  ASSERT_EQ(restored.raw().size(), field.raw().size());
  for (std::size_t i = 0; i < field.raw().size(); ++i)
    EXPECT_EQ(restored.raw()[i], field.raw()[i]);
  EXPECT_EQ(restored.peak(), field.peak());
  EXPECT_EQ(restored.average(), field.average());
}

TEST(SnapshotComponents, TemperatureFieldDimensionMismatchThrows) {
  thermal::TemperatureField field(8, 6, 1, 318.0);
  snapshot::Writer w;
  field.save_state(w);
  thermal::TemperatureField other(6, 8, 1, 318.0);  // transposed grid
  snapshot::Reader r(w.bytes());
  EXPECT_THROW(other.load_state(r), snapshot::SnapshotError);
}

TEST(SnapshotComponents, OnlineControllerRoundTrips) {
  sprint::OnlineLevelController ctrl(16, /*start_level=*/2);
  // Drive the hill climber into a mid-search state.
  ctrl.observe(1.00);  // baseline at level 2
  ctrl.observe(0.80);  // probe up measured faster
  ctrl.observe(0.70);  // keep climbing

  snapshot::Writer w;
  ctrl.save_state(w);
  sprint::OnlineLevelController restored(16, 1);
  snapshot::Reader r(w.bytes());
  restored.load_state(r);

  EXPECT_EQ(restored.next_level(), ctrl.next_level());
  EXPECT_EQ(restored.converged(), ctrl.converged());
  EXPECT_EQ(restored.n_max(), ctrl.n_max());

  // Identical observations after restore must keep the two controllers in
  // lock-step — that is what makes adaptive campaigns resumable.
  for (double t : {0.65, 0.72, 0.68, 0.71}) {
    EXPECT_EQ(restored.next_level(), ctrl.next_level());
    ctrl.observe(t);
    restored.observe(t);
  }
  EXPECT_EQ(restored.next_level(), ctrl.next_level());
  EXPECT_EQ(restored.converged(), ctrl.converged());
}

// --- router section validation -----------------------------------------------
//
// Router::load_state uses the restored stage, port, VC and grant fields as
// array subscripts and shift counts, so every field out of its range must
// be refused with a SnapshotError rather than trusted.

/// Field values of a hand-written router section: input VC 0, output VC 0
/// and the port-0 round-robin pointers take these; every other VC and
/// pointer keeps an idle router's values.
struct RouterSection {
  std::uint8_t power = 0;
  std::uint8_t stage = 0;
  std::uint8_t out_port = 0;
  std::int64_t out_vc = -1;
  std::int64_t msg_class = 0;
  bool allocated = false;
  std::int64_t owner_port = -1;
  std::int64_t owner_vc = -1;
  std::int64_t credits = 4;
  std::int64_t num_grants = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> grants;
  std::int64_t in_rr = 0;
  std::int64_t out_rr = 0;
  std::int64_t va_rr = 0;
};

/// Serializes `f` in Router::save_state's layout for a Table 1 mesh router
/// (5 ports x 4 VCs, depth 4).
std::vector<std::uint8_t> router_section(const RouterSection& f) {
  const noc::NetworkParams params;
  const int vcs = kNumPorts * params.num_vcs;
  snapshot::Writer w;
  w.begin_section("router");
  w.u8(f.power);
  w.i64(0);  // wake_remaining
  w.i64(0);  // wake_attempts
  w.u64(0);  // idle_streak
  for (int i = 0; i < vcs; ++i) {
    noc::VcBuffer(params.vc_depth).save_state(w);
    w.u8(i == 0 ? f.stage : 0);
    w.u8(i == 0 ? f.out_port : 0);
    w.i64(i == 0 ? f.out_vc : -1);
    w.i64(i == 0 ? f.msg_class : 0);
  }
  for (int i = 0; i < vcs; ++i) {
    w.b(i == 0 && f.allocated);
    w.i64(i == 0 ? f.owner_port : -1);
    w.i64(i == 0 ? f.owner_vc : -1);
    w.i64(i == 0 ? f.credits : params.vc_depth);
  }
  w.i64(f.num_grants);
  for (const auto& [port, vc] : f.grants) {
    w.i64(port);
    w.i64(vc);
  }
  for (int p = 0; p < kNumPorts; ++p) {
    w.i64(p == 0 ? f.in_rr : 0);
    w.i64(p == 0 ? f.out_rr : 0);
    w.i64(p == 0 ? f.va_rr : 0);
  }
  for (int c = 0; c < 16; ++c) w.u64(0);  // RouterCounters
  w.u64(0);                               // counted_until
  w.end_section();
  return w.bytes();
}

void load_router_section(const RouterSection& f) {
  const noc::NetworkParams params;
  const noc::Topology topo = noc::Topology::mesh(params.width, params.height);
  noc::XyRouting xy;
  noc::Router router(5, params, topo, &xy);
  snapshot::Reader r(router_section(f));
  router.load_state(r);
}

TEST(SnapshotComponents, RouterSectionLayoutMatchesSaveState) {
  const noc::NetworkParams params;
  const noc::Topology topo = noc::Topology::mesh(params.width, params.height);
  noc::XyRouting xy;
  const noc::Router idle(5, params, topo, &xy);
  snapshot::Writer w;
  idle.save_state(w);
  EXPECT_EQ(w.bytes(), router_section(RouterSection{}));

  // In-range values of every field load cleanly.
  RouterSection ok;
  ok.power = 2;
  ok.stage = 3;
  ok.out_port = 4;
  ok.out_vc = 3;
  ok.allocated = true;
  ok.owner_port = 4;
  ok.owner_vc = 3;
  ok.credits = 0;
  ok.num_grants = 1;
  ok.grants = {{4, 3}};
  ok.in_rr = 3;
  ok.out_rr = 4;
  ok.va_rr = 19;
  EXPECT_NO_THROW(load_router_section(ok));
}

TEST(SnapshotComponents, RouterSectionOutOfRangeFieldsThrow) {
  const auto expect_refused = [](const char* what, auto mutate) {
    SCOPED_TRACE(what);
    RouterSection f;
    mutate(f);
    EXPECT_THROW(load_router_section(f), snapshot::SnapshotError);
  };
  expect_refused("power state", [](RouterSection& f) { f.power = 3; });
  expect_refused("stage", [](RouterSection& f) { f.stage = 4; });
  expect_refused("out_port = nports", [](RouterSection& f) { f.out_port = 5; });
  expect_refused("out_port = 200", [](RouterSection& f) { f.out_port = 200; });
  expect_refused("out_vc = num_vcs", [](RouterSection& f) { f.out_vc = 4; });
  expect_refused("out_vc = -2", [](RouterSection& f) { f.out_vc = -2; });
  expect_refused("active VC without out_vc", [](RouterSection& f) {
    f.stage = 3;
    f.out_vc = -1;
  });
  expect_refused("msg_class", [](RouterSection& f) { f.msg_class = 1; });
  expect_refused("owner_port = nports",
                 [](RouterSection& f) { f.owner_port = 5; });
  expect_refused("owner_port = -2",
                 [](RouterSection& f) { f.owner_port = -2; });
  expect_refused("owner_vc = num_vcs", [](RouterSection& f) { f.owner_vc = 4; });
  expect_refused("allocated without owner", [](RouterSection& f) {
    f.allocated = true;
  });
  expect_refused("credits = -1", [](RouterSection& f) { f.credits = -1; });
  expect_refused("credits = depth + 1", [](RouterSection& f) { f.credits = 5; });
  expect_refused("grant count = -1",
                 [](RouterSection& f) { f.num_grants = -1; });
  expect_refused("grant count = nports + 1",
                 [](RouterSection& f) { f.num_grants = 6; });
  expect_refused("grant count = 2^40",
                 [](RouterSection& f) { f.num_grants = std::int64_t{1} << 40; });
  expect_refused("grant port", [](RouterSection& f) {
    f.num_grants = 1;
    f.grants = {{5, 0}};
  });
  expect_refused("grant vc", [](RouterSection& f) {
    f.num_grants = 1;
    f.grants = {{0, -1}};
  });
  expect_refused("input round-robin", [](RouterSection& f) { f.in_rr = 4; });
  expect_refused("output round-robin",
                 [](RouterSection& f) { f.out_rr = -1; });
  expect_refused("VA round-robin", [](RouterSection& f) { f.va_rr = 20; });
}

// --- bit-identical resume ----------------------------------------------------

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

/// A fig09-style configuration: 4-core NoC-sprinting region on the Table 1
/// mesh, uniform traffic, deterministic seed.
Rig make_rig(bool faults, std::uint64_t seed = 7) {
  noc::NetworkParams params;
  auto bundle =
      sprint::make_noc_sprinting_network(params, 4, "uniform", seed);
  Rig rig;
  rig.routing = std::move(bundle.routing);
  rig.net = std::move(bundle.network);
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

/// The core guarantee: run to `cut`, checkpoint, restore into a freshly
/// built network, continue — the final results must be bit-identical to
/// the run that never stopped.
void check_resume_at(Cycle cut, bool faults, const std::string& tag) {
  SCOPED_TRACE(tag);
  const noc::SimConfig sim = short_sim(faults);
  const std::string path = tmp_path("resume_" + tag + ".nocsnap");

  Rig uninterrupted = make_rig(faults);
  const noc::SimResults reference =
      noc::run_simulation(*uninterrupted.net, sim);

  Rig first = make_rig(faults);
  noc::CheckpointConfig stop;
  stop.save_path = path;
  stop.stop_at = cut;
  const noc::SimResults partial =
      noc::run_simulation(*first.net, sim, ckpt_for(first, stop));
  ASSERT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.cycles, cut);

  Rig second = make_rig(faults);
  noc::CheckpointConfig resume;
  resume.restore_path = path;
  const noc::SimResults resumed =
      noc::run_simulation(*second.net, sim, ckpt_for(second, resume));
  EXPECT_FALSE(resumed.interrupted);
  expect_identical(resumed, reference);
  std::remove(path.c_str());
}

TEST(SnapshotResume, BitIdenticalFromWarmupCut) {
  check_resume_at(150, /*faults=*/false, "warmup");
}

TEST(SnapshotResume, BitIdenticalFromMidMeasureCut) {
  check_resume_at(300 + 600, /*faults=*/false, "measure");
}

TEST(SnapshotResume, BitIdenticalFromDrainCut) {
  check_resume_at(300 + 1200 + 1, /*faults=*/false, "drain");
}

TEST(SnapshotResume, BitIdenticalWithFaultsFromWarmupCut) {
  check_resume_at(150, /*faults=*/true, "faults_warmup");
}

TEST(SnapshotResume, BitIdenticalWithFaultsFromMidMeasureCut) {
  check_resume_at(300 + 600, /*faults=*/true, "faults_measure");
}

TEST(SnapshotResume, BitIdenticalWithFaultsFromDrainCut) {
  check_resume_at(300 + 1200 + 1, /*faults=*/true, "faults_drain");
}

TEST(SnapshotResume, EmptyCheckpointConfigMatchesPlainRun) {
  const noc::SimConfig sim = short_sim(false);
  Rig a = make_rig(false);
  Rig b = make_rig(false);
  expect_identical(noc::run_simulation(*a.net, sim),
                   noc::run_simulation(*b.net, sim, noc::CheckpointConfig{}));
}

TEST(SnapshotResume, PeriodicAutosaveRestoresToIdenticalEnd) {
  // Run to completion with autosave; the surviving file is the last
  // periodic checkpoint.  Restoring it and finishing must land on the
  // same results as the uninterrupted run.
  const noc::SimConfig sim = short_sim(false);
  const std::string path = tmp_path("autosave.nocsnap");

  Rig a = make_rig(false);
  noc::CheckpointConfig autosave;
  autosave.save_path = path;
  autosave.every = 500;
  const noc::SimResults reference =
      noc::run_simulation(*a.net, sim, autosave);
  EXPECT_FALSE(reference.interrupted);

  Rig b = make_rig(false);
  noc::CheckpointConfig resume;
  resume.restore_path = path;
  const noc::SimResults resumed = noc::run_simulation(*b.net, sim, resume);
  expect_identical(resumed, reference);
  std::remove(path.c_str());
}

TEST(SnapshotResume, MismatchedSimConfigRejected) {
  noc::SimConfig sim = short_sim(false);
  const std::string path = tmp_path("mismatch.nocsnap");

  Rig a = make_rig(false);
  noc::CheckpointConfig stop;
  stop.save_path = path;
  stop.stop_at = 400;
  (void)noc::run_simulation(*a.net, sim, stop);

  Rig b = make_rig(false);
  noc::CheckpointConfig resume;
  resume.restore_path = path;
  sim.measure += 1;  // not the config the checkpoint was taken under
  EXPECT_THROW(noc::run_simulation(*b.net, sim, resume),
               snapshot::SnapshotError);
  std::remove(path.c_str());
}

TEST(SnapshotResume, MismatchedNetworkRejected) {
  const noc::SimConfig sim = short_sim(false);
  const std::string path = tmp_path("mismatch_net.nocsnap");

  Rig a = make_rig(false);
  noc::CheckpointConfig stop;
  stop.save_path = path;
  stop.stop_at = 400;
  (void)noc::run_simulation(*a.net, sim, stop);

  // An 8-core region has different endpoints than the checkpointed 4-core
  // run; the fingerprint check must refuse to load the state on top.
  noc::NetworkParams params;
  auto bundle = sprint::make_noc_sprinting_network(params, 8, "uniform", 7);
  noc::CheckpointConfig resume;
  resume.restore_path = path;
  EXPECT_THROW(noc::run_simulation(*bundle.network, sim, resume),
               snapshot::SnapshotError);
  std::remove(path.c_str());
}

TEST(SnapshotResume, MissingExtraComponentRejected) {
  // A checkpoint taken with a fault injector cannot be restored without
  // one (the extras section would be left unread).
  const noc::SimConfig sim = short_sim(true);
  const std::string path = tmp_path("missing_extra.nocsnap");

  Rig a = make_rig(true);
  noc::CheckpointConfig stop;
  stop.save_path = path;
  stop.stop_at = 400;
  (void)noc::run_simulation(*a.net, sim, ckpt_for(a, stop));

  Rig b = make_rig(true);
  noc::CheckpointConfig resume;
  resume.restore_path = path;  // extras deliberately left empty
  EXPECT_THROW(noc::run_simulation(*b.net, sim, resume),
               snapshot::SnapshotError);
  std::remove(path.c_str());
}

// --- resumable batches (common/batch) ----------------------------------------

noc::SimResults tiny_run(double rate, std::uint64_t seed) {
  auto b = sprint::make_noc_sprinting_network(noc::NetworkParams{}, 4,
                                              "uniform", seed);
  noc::SimConfig sim;
  sim.warmup = 100;
  sim.measure = 400;
  sim.injection_rate = rate;
  return noc::run_simulation(*b.network, sim);
}

/// An injection sweep run the way the CLI runs one: point i at rates[i]
/// with task_seed(seed, i), resumed through `manifest`.  `calls` counts the
/// points actually simulated.
std::vector<noc::SimResults> sweep(const std::vector<double>& rates,
                                   std::uint64_t seed,
                                   snapshot::TaskManifest* manifest = nullptr,
                                   int* calls = nullptr) {
  std::vector<noc::SimResults> out(rates.size());
  run_batch(
      rates.size(),
      [&](std::size_t i) -> std::optional<json::Value> {
        if (calls != nullptr) ++*calls;
        out[i] = tiny_run(rates[i], task_seed(seed, i));
        return noc::to_json(out[i]);
      },
      [&](std::size_t i, const json::Value& v) {
        out[i] = noc::sim_results_from_json(v);
      },
      manifest, 1);
  return out;
}

void expect_identical(const std::vector<noc::SimResults>& a,
                      const std::vector<noc::SimResults>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);
}

TEST(BatchResume, ManifestRecordsAndReplays) {
  const std::string path = tmp_path("sweep_manifest.json");
  std::remove(path.c_str());
  const std::vector<double> rates = {0.05, 0.1, 0.15};
  const std::uint64_t seed = 21;
  const std::string fp = sprint::sweep_fingerprint(rates, seed);
  const auto plain = sweep(rates, seed);

  {
    snapshot::TaskManifest manifest(path, fp);
    int calls = 0;
    expect_identical(sweep(rates, seed, &manifest, &calls), plain);
    EXPECT_EQ(calls, 3);
  }

  // A fresh process re-running the same sweep replays every task from the
  // manifest without running any.
  {
    snapshot::TaskManifest manifest(path, fp);
    EXPECT_EQ(manifest.completed_count(), 3u);
    int calls = 0;
    expect_identical(sweep(rates, seed, &manifest, &calls), plain);
    EXPECT_EQ(calls, 0);
  }
  std::remove(path.c_str());
}

TEST(BatchResume, PartialManifestRunsOnlyMissingTasks) {
  const std::string path = tmp_path("sweep_partial.json");
  std::remove(path.c_str());
  const std::vector<double> rates = {0.05, 0.1, 0.15, 0.2};
  const std::uint64_t seed = 22;
  const std::string fp = sprint::sweep_fingerprint(rates, seed);

  // Simulate an interrupted sweep: only tasks 0 and 2 completed.
  {
    snapshot::TaskManifest manifest(path, fp);
    manifest.record(0, to_json(tiny_run(rates[0], task_seed(seed, 0))));
    manifest.record(2, to_json(tiny_run(rates[2], task_seed(seed, 2))));
  }

  snapshot::TaskManifest manifest(path, fp);
  int calls = 0;
  const auto points = sweep(rates, seed, &manifest, &calls);
  EXPECT_EQ(calls, 2);  // tasks 1 and 3 only
  EXPECT_EQ(manifest.completed_count(), 4u);
  expect_identical(points, sweep(rates, seed));
  std::remove(path.c_str());
}

TEST(BatchResume, FingerprintMismatchStartsFresh) {
  const std::string path = tmp_path("sweep_fingerprint.json");
  std::remove(path.c_str());
  {
    snapshot::TaskManifest manifest(path, "fingerprint-a");
    manifest.record(0, json::Value::object());
  }
  snapshot::TaskManifest manifest(path, "fingerprint-b");
  EXPECT_EQ(manifest.completed_count(), 0u);
  EXPECT_FALSE(manifest.completed(0));
  std::remove(path.c_str());
}

TEST(BatchResume, DisabledManifestIsThePlainLoop) {
  const std::vector<double> rates = {0.05, 0.1};
  snapshot::TaskManifest disabled;
  int calls = 0;
  expect_identical(sweep(rates, 23, &disabled, &calls), sweep(rates, 23));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(disabled.completed_count(), 0u);
}

TEST(BatchResume, StopFlagStartsNoNewTaskAndInterruptedTasksStayOut) {
  const std::string path = tmp_path("batch_stop.json");
  std::remove(path.c_str());
  snapshot::TaskManifest manifest(path, "stop-test");
  std::atomic<bool> stop{false};
  std::vector<std::size_t> ran;
  const auto payload = [](std::size_t i) {
    json::Value o = json::Value::object();
    o.set("task", static_cast<std::uint64_t>(i));
    return o;
  };
  // Task 1 reports itself interrupted; task 2 raises the stop flag as it
  // finishes, so tasks 3 and 4 never start (one worker runs in order).
  run_batch(
      5,
      [&](std::size_t i) -> std::optional<json::Value> {
        ran.push_back(i);
        if (i == 1) return std::nullopt;
        if (i == 2) stop.store(true);
        return payload(i);
      },
      [](std::size_t, const json::Value&) { FAIL() << "nothing to replay"; },
      &manifest, 1, &stop);
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(manifest.completed_count(), 2u);
  EXPECT_TRUE(manifest.completed(0));
  EXPECT_FALSE(manifest.completed(1));
  EXPECT_TRUE(manifest.completed(2));

  // The resumed batch replays 0 and 2 and, stop still set, starts nothing.
  std::vector<std::size_t> replayed;
  ran.clear();
  snapshot::TaskManifest resumed(path, "stop-test");
  run_batch(
      5,
      [&](std::size_t i) -> std::optional<json::Value> {
        ran.push_back(i);
        return payload(i);
      },
      [&](std::size_t i, const json::Value& v) {
        EXPECT_EQ(v.at("task").as_number(), static_cast<double>(i));
        replayed.push_back(i);
      },
      &resumed, 1, &stop);
  EXPECT_TRUE(ran.empty());
  EXPECT_EQ(replayed, (std::vector<std::size_t>{0, 2}));
  std::remove(path.c_str());
}

TEST(BatchResume, CliSweepFingerprintIsPinned) {
  // The string a manifest written by `nocsprint_cli mode=sweep level=8
  // rates=0.05:0.05:0.3 checkpoint=` carries; changing it orphans every
  // manifest already on disk.
  EXPECT_EQ(sprint::sweep_fingerprint(sprint::parse_rates("0.05:0.05:0.3"), 1),
            "sweep:n=6;seed=1;rates=0.05,0.1,0.15000000000000002,0.2,0.25,"
            "0.3");
}

TEST(BatchResume, SimResultsJsonRoundTripIsExact) {
  const noc::SimResults r = tiny_run(0.18, task_seed(31, 0));
  expect_identical(noc::sim_results_from_json(noc::to_json(r)), r);
}

// --- append-only record log (the serve ledger's framing) --------------------

std::vector<std::string> record_strings(const snapshot::RecordScan& scan) {
  std::vector<std::string> out;
  for (const auto& bytes : scan.records)
    out.emplace_back(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
  return out;
}

TEST(RecordLog, AppendsAndScansBack) {
  const std::string path = tmp_path("records_roundtrip.nsrl");
  std::remove(path.c_str());
  // Missing file: an empty, undamaged log (first daemon start).
  const snapshot::RecordScan empty = snapshot::scan_records(path);
  EXPECT_FALSE(empty.damaged);
  EXPECT_TRUE(empty.records.empty());
  EXPECT_EQ(empty.valid_bytes, 0u);

  const std::vector<std::string> payloads = {"{\"a\":1}", "", "x",
                                             std::string(5000, 'z')};
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  for (const std::string& p : payloads)
    ASSERT_TRUE(snapshot::append_record(
        f, reinterpret_cast<const std::uint8_t*>(p.data()), p.size()));
  std::fclose(f);

  const snapshot::RecordScan scan = snapshot::scan_records(path);
  EXPECT_FALSE(scan.damaged) << scan.damage;
  EXPECT_EQ(record_strings(scan), payloads);
  std::remove(path.c_str());
}

TEST(RecordLog, TruncatedTailYieldsValidPrefix) {
  const std::string path = tmp_path("records_truncated.nsrl");
  std::remove(path.c_str());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::string keep = "{\"keep\":true}";
  ASSERT_TRUE(snapshot::append_record(
      f, reinterpret_cast<const std::uint8_t*>(keep.data()), keep.size()));
  std::fclose(f);
  const std::size_t clean_size = snapshot::scan_records(path).valid_bytes;

  // kill -9 mid-append: header promises more payload than the file holds.
  f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const std::uint32_t magic = snapshot::kRecordMagic;
  const std::uint64_t len = 400;
  std::fwrite(&magic, sizeof magic, 1, f);
  std::fwrite(&len, sizeof len, 1, f);
  std::fwrite("short", 1, 5, f);
  std::fclose(f);

  const snapshot::RecordScan scan = snapshot::scan_records(path);
  EXPECT_TRUE(scan.damaged);
  EXPECT_FALSE(scan.damage.empty());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(record_strings(scan).front(), keep);
  // valid_bytes is the truncation point that makes the file clean again.
  EXPECT_EQ(scan.valid_bytes, clean_size);
  std::remove(path.c_str());
}

TEST(RecordLog, CorruptPayloadByteStopsTheScanThere) {
  const std::string path = tmp_path("records_bitflip.nsrl");
  std::remove(path.c_str());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  for (const char* p : {"first", "second", "third"})
    ASSERT_TRUE(snapshot::append_record(
        f, reinterpret_cast<const std::uint8_t*>(p), std::strlen(p)));
  std::fclose(f);

  // Flip one byte inside the *last* record's payload.
  f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -2, SEEK_END);
  std::fputc('X', f);
  std::fclose(f);

  const snapshot::RecordScan scan = snapshot::scan_records(path);
  EXPECT_TRUE(scan.damaged);
  EXPECT_EQ(record_strings(scan),
            (std::vector<std::string>{"first", "second"}));
  std::remove(path.c_str());
}

// --- lenient manifest loading -----------------------------------------------

TEST(ManifestRecovery, TruncatedManifestRecoversCompletePrefix) {
  const std::string path = tmp_path("manifest_truncated.json");
  std::remove(path.c_str());
  const std::vector<double> rates = {0.05, 0.1, 0.15};
  const std::uint64_t seed = 33;
  const std::string fp = sprint::sweep_fingerprint(rates, seed);
  {
    snapshot::TaskManifest manifest(path, fp);
    sweep(rates, seed, &manifest);
  }
  // Chop the file mid-way through the last completed entry — a half-
  // written copy left behind by a dying process.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  const std::size_t cut = text.find("\"2\"");
  ASSERT_NE(cut, std::string::npos);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(text.data(), 1, cut + 2, f);
  std::fclose(f);

  // Loading must not abort: entries 0 and 1 are salvaged, only the torn
  // entry 2 is re-run.
  snapshot::TaskManifest manifest(path, fp);
  EXPECT_EQ(manifest.completed_count(), 2u);
  EXPECT_TRUE(manifest.completed(0));
  EXPECT_TRUE(manifest.completed(1));
  EXPECT_FALSE(manifest.completed(2));
  int calls = 0;
  const auto points = sweep(rates, seed, &manifest, &calls);
  EXPECT_EQ(calls, 1);
  expect_identical(points, sweep(rates, seed));
  std::remove(path.c_str());
}

TEST(ManifestRecovery, GarbageManifestStartsFreshInsteadOfAborting) {
  const std::string path = tmp_path("manifest_garbage.json");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"magic\": \"nocs-sweep-manifest\", \"ver", f);
  std::fclose(f);
  const std::vector<double> rates = {0.05, 0.1};
  snapshot::TaskManifest manifest(path, sprint::sweep_fingerprint(rates, 34));
  EXPECT_EQ(manifest.completed_count(), 0u);
  int calls = 0;
  sweep(rates, 34, &manifest, &calls);
  EXPECT_EQ(calls, 2);
  std::remove(path.c_str());
}

TEST(ManifestRecovery, PrefixOfOtherFingerprintIsNotSalvaged) {
  const std::string path = tmp_path("manifest_wrong_fp.json");
  std::remove(path.c_str());
  const std::vector<double> rates = {0.05, 0.1};
  {
    snapshot::TaskManifest manifest(path,
                                    sprint::sweep_fingerprint(rates, 35));
    sweep(rates, 35, &manifest);
  }
  // Truncate so the strict parse fails, then load under a *different*
  // fingerprint: recovery must refuse foreign task results.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(text.data(), 1, text.size() - 4, f);
  std::fclose(f);
  snapshot::TaskManifest manifest(path, sprint::sweep_fingerprint(rates, 36));
  EXPECT_EQ(manifest.completed_count(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nocs
