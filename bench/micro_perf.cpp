// Micro-benchmarks (google-benchmark): raw speed of the simulator and the
// paper's algorithms.  Not a paper figure — engineering data for users
// sizing their own sweeps.  The figure wall-time record is
// scripts/figures.sh's BENCH_noc.json; the end-to-end benchmark is
// nocbench/.
#include <benchmark/benchmark.h>

#include <deque>

#include "cmp/perf_model.hpp"
#include "noc/simulator.hpp"
#include "sprint/cdor.hpp"
#include "sprint/floorplanner.hpp"
#include "sprint/network_builder.hpp"
#include "sprint/topology.hpp"
#include "thermal/grid.hpp"

using namespace nocs;

namespace {

/// Builds the standard tick-benchmark network: side x side mesh, every
/// node an endpoint, uniform traffic at 0.2 flits/cycle, pipelines warm.
std::unique_ptr<noc::Network> make_tick_network(
    int side, const noc::RoutingPolicy* routing) {
  noc::NetworkParams p;
  p.width = side;
  p.height = side;
  auto net = std::make_unique<noc::Network>(p, routing);
  std::vector<NodeId> all;
  for (int i = 0; i < p.num_nodes(); ++i) all.push_back(i);
  net->set_endpoints(all, noc::make_traffic("uniform", p.num_nodes()));
  net->set_injection_rate(0.2);
  net->set_seed(1);
  net->run(1000);  // warm the pipelines
  return net;
}

}  // namespace

static void BM_NetworkTick(benchmark::State& state) {
  noc::XyRouting xy;
  auto net = make_tick_network(static_cast<int>(state.range(0)), &xy);
  for (auto _ : state) net->tick();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(net->num_nodes()));
}
BENCHMARK(BM_NetworkTick)->Arg(4)->Arg(8);

// Sharded barrier-synchronous tick: same network as BM_NetworkTick but
// with tick() partitioned into row-band shards on sim_threads threads.
// Results are bit-identical to serial; this measures the wall-clock win.
static void BM_NetworkTickSharded(benchmark::State& state) {
  noc::XyRouting xy;
  auto net = make_tick_network(static_cast<int>(state.range(0)), &xy);
  net->set_sim_threads(static_cast<int>(state.range(1)));
  for (auto _ : state) net->tick();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(net->num_nodes()));
}
BENCHMARK(BM_NetworkTickSharded)
    ->Args({16, 1})
    ->Args({16, 4})
    ->Args({32, 1})
    ->Args({32, 4})
    ->Args({32, 8});

// Sprint level 4 of 16: a 2x2 active region, 12 routers dark.  The
// active-router fast path should make the dark region's tick cost ~zero,
// so this lands far below BM_NetworkTick/4 per tick.
static void BM_NetworkTickGated(benchmark::State& state) {
  noc::NetworkParams p;
  p.width = 4;
  p.height = 4;
  sprint::NetworkBundle b =
      sprint::make_noc_sprinting_network(p, 4, "uniform", 1);
  b.network->set_injection_rate(0.2);
  b.network->run(1000);
  for (auto _ : state) b.network->tick();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.num_nodes()));
}
BENCHMARK(BM_NetworkTickGated);

namespace {

/// The pre-ring VcBuffer implementation, kept here as the comparison
/// baseline for BM_VcBuffer (std::deque allocates/frees chunks as flits
/// stream through, which is what the ring rewrite removed).
class DequeVcBuffer {
 public:
  explicit DequeVcBuffer(int capacity) : capacity_(capacity) {}
  bool empty() const { return q_.empty(); }
  bool full() const { return static_cast<int>(q_.size()) >= capacity_; }
  void push(const noc::Flit& f) { q_.push_back(f); }
  const noc::Flit& front() const { return q_.front(); }
  noc::Flit pop() {
    noc::Flit f = q_.front();
    q_.pop_front();
    return f;
  }

 private:
  int capacity_;
  std::deque<noc::Flit> q_;
};

template <typename Buffer>
void run_buffer_benchmark(benchmark::State& state) {
  Buffer buf(4);
  noc::Flit f;
  f.packet = 42;
  std::int64_t items = 0;
  for (auto _ : state) {
    // One wormhole burst: fill the VC, then drain it.
    for (int i = 0; i < 4; ++i) {
      f.index = i;
      buf.push(f);
    }
    while (!buf.empty()) benchmark::DoNotOptimize(buf.pop());
    items += 4;
  }
  state.SetItemsProcessed(items);
}

}  // namespace

static void BM_VcBufferRing(benchmark::State& state) {
  run_buffer_benchmark<noc::VcBuffer>(state);
}
BENCHMARK(BM_VcBufferRing);

static void BM_VcBufferDeque(benchmark::State& state) {
  run_buffer_benchmark<DequeVcBuffer>(state);
}
BENCHMARK(BM_VcBufferDeque);

static void BM_SprintOrder(benchmark::State& state) {
  const MeshShape mesh(static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(sprint::sprint_order(mesh, 0));
}
BENCHMARK(BM_SprintOrder)->Arg(4)->Arg(16);

static void BM_CdorRoute(benchmark::State& state) {
  const MeshShape mesh(4, 4);
  const sprint::CdorRouting cdor(mesh, sprint::active_set(mesh, 8, 0), 0);
  int i = 0;
  const auto& act = cdor.active_nodes();
  for (auto _ : state) {
    const Coord a = mesh.coord_of(act[static_cast<std::size_t>(i % 8)]);
    const Coord b = mesh.coord_of(act[static_cast<std::size_t>((i + 3) % 8)]);
    benchmark::DoNotOptimize(cdor.route(a, b));
    ++i;
  }
}
BENCHMARK(BM_CdorRoute);

static void BM_Floorplan(benchmark::State& state) {
  const MeshShape mesh(static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(sprint::thermal_aware_floorplan(mesh, 0));
}
BENCHMARK(BM_Floorplan)->Arg(4)->Arg(8);

static void BM_ThermalSteady(benchmark::State& state) {
  const MeshShape mesh(4, 4);
  thermal::GridThermalParams gp;
  const thermal::GridThermalModel model(gp, 12.0, 12.0);
  std::vector<Watts> powers(16, 1.0);
  powers[0] = 5.0;
  const thermal::Floorplan fp = thermal::make_cmp_floorplan(
      mesh, 12.0, 12.0, powers, thermal::identity_positions(16));
  for (auto _ : state) benchmark::DoNotOptimize(model.solve_steady(fp));
}
BENCHMARK(BM_ThermalSteady);

static void BM_CalibrateSuite(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(cmp::parsec_suite(16));
}
BENCHMARK(BM_CalibrateSuite);

BENCHMARK_MAIN();
