// Repository benchmark driver.
//
// Runs one workload as a batch of identical ops until a time budget is
// spent, timing every public library call it makes from outside, checks
// each op's simulated outputs, and prints one JSON document on stdout.
// run.py builds this program, runs it and turns that document into the
// benchmark's result line; README.md describes the workloads and metrics.
//
//   nocbench --workload NAME --seed N --seconds S [--trace 0|1]
//            [--expect-digest HEX] [--trace-out PATH]
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json.hpp"
#include "mem/mem_params.hpp"
#include "mem/mem_subsystem.hpp"
#include "mem/tile_driver.hpp"
#include "mem/tile_schedule.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "noc/simulator.hpp"
#include "noc/traffic.hpp"
#include "power/chip_power.hpp"
#include "power/noc_power.hpp"
#include "power/router_power.hpp"
#include "sprint/floorplanner.hpp"
#include "sprint/network_builder.hpp"
#include "sprint/topology.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/grid.hpp"
#include "thermal/pcm.hpp"

using namespace nocs;

namespace {

using Clock = std::chrono::steady_clock;

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double loadavg_1min() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- spans -----------------------------------------------------------------

/// One recorded interval.  Op spans have parent -1; every call span's
/// parent is the span of the op it belongs to, and all spans of one op
/// share its op id.
struct Span {
  std::string name;
  int op = 0;
  int parent = -1;
  double start = 0.0;  ///< seconds since the recorder was created
  double end = 0.0;
};

/// In-memory span recorder; a disabled recorder records nothing.  Spans
/// are written out only once, at exit.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  int open(const char* name, int op, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, op, parent, now(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now();
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event form ("X" events, microseconds).
  json::Value chrome_trace() const {
    json::Value events = json::Value::array();
    for (const Span& s : spans_) {
      json::Value e = json::Value::object();
      e.set("name", s.name);
      e.set("ph", "X");
      e.set("pid", 1);
      e.set("tid", 1);
      e.set("ts", s.start * 1e6);
      e.set("dur", (s.end - s.start) * 1e6);
      json::Value args = json::Value::object();
      args.set("op", s.op);
      args.set("parent", s.parent);
      e.set("args", std::move(args));
      events.push_back(std::move(e));
    }
    json::Value doc = json::Value::object();
    doc.set("traceEvents", std::move(events));
    return doc;
  }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  bool enabled_;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// The layer a span belongs to: the name up to the first '.', with op
/// spans (and the benchmark's own checks) counted as "bench".
std::string layer_of(const std::string& span_name) {
  const std::size_t dot = span_name.find('.');
  return dot == std::string::npos ? "bench" : span_name.substr(0, dot);
}

// --- digest ------------------------------------------------------------------

/// FNV-1a over the simulated statistics of an op (integers and the exact
/// bit patterns of doubles).
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
          c.mc_replications, c.mc_flits})
      add(v);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

// --- ops -----------------------------------------------------------------------

enum class Phase { kSetup, kRun };

/// Timings, work and modelled outputs of one op.
struct Op {
  int id = 0;
  int span = -1;
  double setup_s = 0.0;  ///< set-up calls: everything before the first cycle
  double run_s = 0.0;    ///< the calls after set-up (cycles_per_s base)
  std::map<std::string, double> call_s;  ///< per call name, summed
  double noc_cpu_s = 0.0;  ///< process CPU time during noc.run calls
  std::uint64_t sim_cycles = 0;

  // Modelled outputs.
  std::vector<double> latency;  ///< mean packet latency, per uniform run
  std::vector<double> p99;      ///< p99 packet latency, per uniform run
  double energy_uj = 0.0;       ///< NoC energy over every simulated run
  noc::RouterCounters uniform;  ///< router work of the uniform runs
  std::uint64_t packets = 0;    ///< measured packets ejected
  std::uint64_t thermal_steps = 0;
  std::uint64_t tile_cycles = 0;
  mem::MemCounters mem;
  std::uint64_t mcast_replications = 0;

  Digest digest;
  std::vector<std::string> failures;

  double call(const char* name) const {
    const auto it = call_s.find(name);
    return it == call_s.end() ? 0.0 : it->second;
  }
};

/// Runs `f` as one timed library call of `op`, recording a span when the
/// recorder is enabled.
template <class F>
decltype(auto) timed(SpanRecorder& rec, Op& op, Phase phase, const char* name,
                     F&& f) {
  const int span = rec.open(name, op.id, op.span);
  const bool noc_run = std::strcmp(name, "noc.run") == 0;
  const double cpu0 = noc_run ? process_cpu_s() : 0.0;
  const Clock::time_point t0 = Clock::now();
  auto finish = [&] {
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    rec.close(span);
    op.call_s[name] += dt;
    (phase == Phase::kSetup ? op.setup_s : op.run_s) += dt;
    if (noc_run) op.noc_cpu_s += process_cpu_s() - cpu0;
  };
  if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
    f();
    finish();
  } else {
    decltype(auto) r = f();
    finish();
    return r;
  }
}

/// What every op of the process reads: the workload seed and the span
/// recorder in use (disabled for untimed or untraced ops).
struct Env {
  std::uint64_t seed = 1;
  SpanRecorder* rec = nullptr;
};

struct PowerModels {
  power::RouterPowerModel router;
  power::LinkPowerModel link;
  double frequency;

  explicit PowerModels(const noc::NetworkParams& p)
      : PowerModels(power::RouterPowerParams::from_network(p), p) {}

 private:
  PowerModels(const power::RouterPowerParams& rp, const noc::NetworkParams& p)
      : router(rp),
        link(p.flit_bytes * 8, 2.5, rp.tech, rp.op),
        frequency(rp.op.frequency) {}
};

/// Estimates the NoC power of `net` over `cycles` and adds its energy to
/// the op.
void add_energy(Env& env, Op& op, const noc::Network& net, Cycle cycles,
                const PowerModels& pm, power::NocPowerEstimate* out = nullptr) {
  const power::NocPowerEstimate est =
      timed(*env.rec, op, Phase::kRun, "power.estimate", [&] {
        return power::estimate_noc_power(net, pm.router, pm.link, cycles);
      });
  op.energy_uj += est.total() * static_cast<double>(cycles) / pm.frequency * 1e6;
  op.digest.add(est.total());
  if (out != nullptr) *out = est;
}

/// Checks one uniform-traffic run, then stops injection and drains the
/// network: every flit must leave it.
void check_and_drain(Env& env, Op& op, noc::Network& net,
                     const noc::SimResults& r, const std::string& what) {
  if (r.packets_generated != r.packets_ejected)
    op.failures.push_back(what + ": " + std::to_string(r.packets_generated) +
                          " packets generated, " +
                          std::to_string(r.packets_ejected) + " ejected");
  if (r.saturated) op.failures.push_back(what + ": saturated");
  if (r.hung) op.failures.push_back(what + ": watchdog fired");
  if (r.interrupted) op.failures.push_back(what + ": interrupted");
  const int span = env.rec->open("bench.drain", op.id, op.span);
  net.set_injection_rate(0.0);
  const Cycle limit = net.now() + 100000;
  while (!net.drained() && net.now() < limit) net.tick();
  env.rec->close(span);
  if (!net.drained()) op.failures.push_back(what + ": network not drained");
}

/// Records a finished uniform-traffic run in the op.
void add_uniform(Op& op, const noc::SimResults& r) {
  op.sim_cycles += r.cycles;
  op.latency.push_back(r.avg_packet_latency);
  op.p99.push_back(r.p99_latency);
  op.uniform += r.counters;
  op.packets += r.packets_ejected;
  Digest& d = op.digest;
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
  d.add(r.counters);
}

// --- dense_mesh16 / sharded_mesh32 ------------------------------------------

struct MeshWorkload {
  int side;
  double rate;
  int sim_threads;
  Cycle warmup;
  Cycle measure;
};

constexpr MeshWorkload kDenseMesh16{16, 0.15, 1, 500, 2000};
constexpr MeshWorkload kShardedMesh32{32, 0.08, 2, 300, 1000};

noc::NetworkParams mesh_params(int side) {
  noc::NetworkParams p;
  p.width = side;
  p.height = side;
  p.validate();
  return p;
}

/// Every node active, XY routing, uniform random traffic.
void mesh_op(Env& env, Op& op, const MeshWorkload& w, int sim_threads,
             const PowerModels& pm) {
  const noc::NetworkParams params = mesh_params(w.side);
  const noc::XyRouting xy;
  noc::SimConfig cfg;
  cfg.warmup = w.warmup;
  cfg.measure = w.measure;
  cfg.injection_rate = w.rate;

  auto net = timed(*env.rec, op, Phase::kSetup, "noc.construct", [&] {
    auto n = std::make_unique<noc::Network>(params, &xy);
    const std::vector<NodeId> all = params.shape().all_nodes();
    n->set_endpoints(all, noc::make_traffic("uniform", params.num_nodes()));
    n->set_seed(env.seed);
    return n;
  });
  timed(*env.rec, op, Phase::kSetup, "parallel.shard",
        [&] { net->set_sim_threads(sim_threads); });
  if (net->sim_threads() != sim_threads)
    op.failures.push_back("sim_threads clamped to " +
                          std::to_string(net->sim_threads()));

  const noc::SimResults r = timed(*env.rec, op, Phase::kRun, "noc.run",
                                  [&] { return noc::run_simulation(*net, cfg); });
  add_uniform(op, r);
  add_energy(env, op, *net, r.cycles, pm);
  check_and_drain(env, op, *net, r, "uniform");
}

// --- sprint_levels8 ---------------------------------------------------------

constexpr int kSprintSide = 8;
constexpr double kSprintRate = 0.2;
constexpr Cycle kSprintWarmup = 500;
constexpr Cycle kSprintMeasure = 2000;
constexpr double kDieMm = 24.0;         // 8x8 tiles of 3 mm
constexpr Seconds kUnboundedWindow = 10.0;  // sprint window when power is sustainable
constexpr Cycle kTileMaxCycles = 2'000'000;
constexpr int kTileGroups = 4;

/// Contiguous near-equal partition of the sprint-order active set into
/// tile groups (member 0 of each group is its leader), as in fig13.
std::vector<std::vector<NodeId>> partition_groups(
    const std::vector<NodeId>& active, int groups) {
  const int n = static_cast<int>(active.size());
  std::vector<std::vector<NodeId>> out;
  int pos = 0;
  for (int g = 0; g < groups; ++g) {
    const int len = n / groups + (g < n % groups ? 1 : 0);
    out.emplace_back(active.begin() + pos, active.begin() + pos + len);
    pos += len;
  }
  return out;
}

/// Active tiles, controller sites and every node on an XY route between
/// two of them: the region that must stay powered for the tile workload.
std::vector<NodeId> powered_closure(const MeshShape& shape,
                                    const std::vector<NodeId>& active,
                                    const std::vector<NodeId>& sites) {
  std::vector<bool> on(static_cast<std::size_t>(shape.size()), false);
  std::vector<NodeId> all = active;
  all.insert(all.end(), sites.begin(), sites.end());
  for (NodeId a : all)
    for (NodeId b : all)
      for (NodeId n : mem::xy_path_nodes(shape, a, b))
        on[static_cast<std::size_t>(n)] = true;
  std::vector<NodeId> powered;
  for (NodeId n = 0; n < shape.size(); ++n)
    if (on[static_cast<std::size_t>(n)]) powered.push_back(n);
  return powered;
}

/// Per-node power for the thermal model: an active node runs its core
/// plus its share of the simulated NoC power, a dark node leaks.
std::vector<Watts> node_powers(int nodes, const std::vector<NodeId>& active,
                               Watts noc_per_active) {
  const power::ChipPowerParams chip{};
  std::vector<Watts> p(static_cast<std::size_t>(nodes),
                       chip.core_gated + chip.l2_tile + chip.noc_gated_node);
  for (NodeId id : active)
    p[static_cast<std::size_t>(id)] =
        chip.core_active + chip.l2_tile + noc_per_active;
  return p;
}

/// One sprint level on the uniform-traffic NoC-sprinting network, then its
/// thermal consequences.
void sprint_level(Env& env, Op& op, int level, const PowerModels& pm,
                  const thermal::GridThermalModel& grid,
                  const thermal::PcmModel& pcm) {
  noc::NetworkParams params = mesh_params(kSprintSide);
  const MeshShape shape = params.shape();
  const std::string what = "level " + std::to_string(level);

  sprint::NetworkBundle b =
      timed(*env.rec, op, Phase::kSetup, "sprint.build", [&] {
        return sprint::make_noc_sprinting_network(params, level, "uniform",
                                                  env.seed);
      });
  timed(*env.rec, op, Phase::kSetup, "parallel.shard",
        [&] { b.network->set_sim_threads(1); });
  const sprint::FloorplanResult fpr = timed(
      *env.rec, op, Phase::kSetup, "sprint.floorplan",
      [&] { return sprint::thermal_aware_floorplan(shape); });

  noc::SimConfig cfg;
  cfg.warmup = kSprintWarmup;
  cfg.measure = kSprintMeasure;
  cfg.injection_rate = kSprintRate;
  const noc::SimResults r = timed(*env.rec, op, Phase::kRun, "noc.run", [&] {
    return noc::run_simulation(*b.network, cfg);
  });
  add_uniform(op, r);
  power::NocPowerEstimate est;
  add_energy(env, op, *b.network, r.cycles, pm, &est);

  const thermal::Floorplan fp = timed(
      *env.rec, op, Phase::kRun, "thermal.floorplan", [&] {
        return thermal::make_cmp_floorplan(
            shape, kDieMm, kDieMm,
            node_powers(shape.size(), b.endpoints, est.total() / level),
            fpr.positions);
      });
  const thermal::TemperatureField steady = timed(
      *env.rec, op, Phase::kRun, "thermal.steady",
      [&] { return grid.solve_steady(fp); });
  const thermal::SprintTimeline tl = timed(
      *env.rec, op, Phase::kRun, "thermal.pcm",
      [&] { return pcm.sprint_timeline(fp.total_power()); });
  const Seconds window = tl.unbounded ? kUnboundedWindow : tl.total();
  const thermal::TemperatureField field =
      timed(*env.rec, op, Phase::kRun, "thermal.transient", [&] {
        thermal::TemperatureField f = grid.ambient_field();
        grid.step_transient(fp, f, window);
        return f;
      });
  op.thermal_steps += static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(window / grid.stable_dt())));
  op.digest.add(steady.peak());
  op.digest.add(tl.total());
  op.digest.add(field.peak());

  check_and_drain(env, op, *b.network, r, what);
}

/// fig13's DRAM-bound tile-transfer schedule at one sprint level: four
/// edge controllers, tree multicast, ticked to completion.
void tile_level(Env& env, Op& op, int level, const PowerModels& pm) {
  noc::NetworkParams params = mesh_params(kSprintSide);
  params.num_classes = 2;  // requests and replies on separate VNs
  params.validate();
  const MeshShape shape = params.shape();
  const noc::XyRouting xy;
  mem::MemParams mp;
  mp.ctrls = 4;
  const std::string what = "tile level " + std::to_string(level);
  const std::vector<NodeId> active =
      timed(*env.rec, op, Phase::kSetup, "sprint.build",
            [&] { return sprint::active_set(shape, level); });

  auto net = timed(*env.rec, op, Phase::kSetup, "noc.construct", [&] {
    auto n = std::make_unique<noc::Network>(params, &xy);
    n->gate_dark_region(powered_closure(
        shape, active, mem::controller_sites(shape, mp.ctrls, mp.placement)));
    return n;
  });
  timed(*env.rec, op, Phase::kSetup, "parallel.shard",
        [&] { net->set_sim_threads(1); });
  auto [mem_sys, driver] = timed(*env.rec, op, Phase::kSetup, "mem.setup", [&] {
    auto m = std::make_unique<mem::MemSubsystem>(*net, mp);
    auto d = std::make_unique<mem::TileTransferDriver>(
        *net, *m, mem::TileSchedule::example(),
        partition_groups(active, std::min(kTileGroups, level)),
        mem::TileDriverOptions{.multicast = true, .chunk_flits = 0});
    d->install();
    return std::pair{std::move(m), std::move(d)};
  });

  const Cycle start = net->now();
  timed(*env.rec, op, Phase::kRun, "mem.run", [&] {
    while (!driver->done() && net->now() < kTileMaxCycles) net->tick();
  });
  driver->uninstall();
  op.sim_cycles += net->now() - start;

  if (!driver->done()) {
    op.failures.push_back(what + ": schedule did not finish");
    return;
  }
  if (!net->drained()) op.failures.push_back(what + ": network not drained");
  const Cycle cycles = driver->finished_at();
  op.tile_cycles += cycles;
  add_energy(env, op, *net, cycles, pm);
  const mem::MemCounters mc = mem_sys->total_counters();
  op.mem.reads += mc.reads;
  op.mem.writes += mc.writes;
  op.mem.queue_peak = std::max(op.mem.queue_peak, mc.queue_peak);
  const noc::RouterCounters rc = net->total_counters();
  op.mcast_replications += rc.mc_replications;
  Digest& d = op.digest;
  d.add(static_cast<std::uint64_t>(cycles));
  d.add(mc.reads);
  d.add(mc.writes);
  d.add(mc.read_flits);
  d.add(mc.write_flits);
  d.add(mc.queue_peak);
  d.add(mc.busy_cycles);
  d.add(rc);
}

void sprint_levels_op(Env& env, Op& op, const PowerModels& pm,
                      const thermal::GridThermalModel& grid,
                      const thermal::PcmModel& pcm) {
  for (int level = 2; level <= kSprintSide * kSprintSide; level *= 2) {
    sprint_level(env, op, level, pm, grid, pcm);
    if (level >= 4) tile_level(env, op, level, pm);
  }
}

// --- main ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expect_digest;
  std::string trace_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "nocbench: %s\nusage: nocbench --workload "
               "dense_mesh16|sprint_levels8|sharded_mesh32 --seed N "
               "--seconds S [--trace 0|1] [--expect-digest HEX] "
               "[--trace-out PATH]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else if (key == "--expect-digest") a.expect_digest = val;
      else if (key == "--trace-out") a.trace_out = val;
      else usage(("unknown argument " + key).c_str());
    } catch (const std::exception&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

json::Value metric(double value, const char* unit) {
  json::Value m = json::Value::object();
  m.set("value", value);
  m.set("unit", unit);
  return m;
}

template <class F>
double median_of(const std::vector<Op>& ops, F&& f) {
  std::vector<double> v;
  v.reserve(ops.size());
  for (const Op& op : ops) v.push_back(f(op));
  return median(v);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double cycles_per_s(const Op& op) {
  return static_cast<double>(op.sim_cycles) / op.run_s;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const bool sprint = args.workload == "sprint_levels8";
  const MeshWorkload* mesh = args.workload == "dense_mesh16"     ? &kDenseMesh16
                             : args.workload == "sharded_mesh32" ? &kShardedMesh32
                                                                 : nullptr;
  if (!sprint && mesh == nullptr) usage("unknown workload");
  const int sim_threads = sprint ? 1 : mesh->sim_threads;

  const double load_start = loadavg_1min();
  SpanRecorder recorder(true);
  SpanRecorder off(false);
  Env env;
  env.seed = args.seed;

  const PowerModels pm(mesh_params(sprint ? kSprintSide : mesh->side));
  const thermal::GridThermalModel grid(thermal::GridThermalParams{}, kDieMm,
                                       kDieMm);
  const thermal::PcmModel pcm(thermal::PcmParams{});

  // Ops alternate traced/untraced in a traced run, so the difference in
  // throughput between the two halves is the tracing overhead.
  std::vector<Op> ops;
  std::vector<double> serial_run_s;  // sharded_mesh32 traced run only
  std::string serial_digest;
  std::vector<std::string> failures;
  std::string reference = args.expect_digest;
  int failed = 0;
  const Clock::time_point start = Clock::now();
  while (ops.empty() ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             args.seconds) {
    Op op;
    op.id = static_cast<int>(ops.size());
    const bool traced = args.trace && op.id % 2 == 0;
    env.rec = traced ? &recorder : &off;
    op.span = env.rec->open("op", op.id, -1);
    try {
      if (sprint) sprint_levels_op(env, op, pm, grid, pcm);
      else mesh_op(env, op, *mesh, mesh->sim_threads, pm);
    } catch (const std::exception& e) {
      op.failures.push_back(std::string("exception: ") + e.what());
    }
    env.rec->close(op.span);

    const std::string digest = op.digest.hex();
    if (reference.empty()) reference = digest;
    if (digest != reference)
      op.failures.push_back("digest " + digest + " != recorded " + reference);
    if (args.trace && mesh != nullptr && mesh->sim_threads > 1) {
      // The same scenario on one shard: the speed-up base, and a
      // determinism check (the digests must be identical).
      Op serial;
      env.rec = &off;
      try {
        mesh_op(env, serial, *mesh, 1, pm);
      } catch (const std::exception& e) {
        serial.failures.push_back(std::string("exception: ") + e.what());
      }
      serial_run_s.push_back(serial.call("noc.run"));
      if (serial_digest.empty()) serial_digest = serial.digest.hex();
      if (serial.digest.hex() != digest)
        op.failures.push_back("serial digest " + serial.digest.hex() +
                              " != sharded " + digest);
      for (const std::string& f : serial.failures)
        op.failures.push_back("serial: " + f);
    }
    if (!op.failures.empty()) {
      ++failed;
      for (const std::string& f : op.failures)
        failures.push_back("op " + std::to_string(op.id) + ": " + f);
    }
    ops.push_back(std::move(op));
  }
  const double load_end = loadavg_1min();
  const Op& first = ops.front();

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  // End-to-end metrics.
  json::Value e2e = json::Value::object();
  e2e.set("cycles_per_s", metric(median_of(ops, cycles_per_s), "1/s"));
  e2e.set("setup_s",
          metric(median_of(ops, [](const Op& o) { return o.setup_s; }), "s"));
  e2e.set("peak_rss_mb",
          metric(static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"));
  e2e.set("sim_latency_cycles", metric(mean(first.latency), "cycles"));
  e2e.set("sim_p99_latency_cycles", metric(mean(first.p99), "cycles"));
  e2e.set("noc_energy_uj", metric(first.energy_uj, "uJ"));

  // Per-layer metrics.
  auto call_median = [&](const char* name) {
    return median_of(ops, [&](const Op& o) { return o.call(name); });
  };
  const double noc_run_s = call_median("noc.run");
  const noc::RouterCounters& uc = first.uniform;
  json::Value layer = json::Value::object();
  layer.set("noc.construct_s", metric(call_median("noc.construct"), "s"));
  layer.set("noc.run_s", metric(noc_run_s, "s"));
  layer.set("noc.ns_per_router_cycle",
            metric(median_of(ops, [](const Op& o) {
                     return o.call("noc.run") * 1e9 /
                            static_cast<double>(o.uniform.active_cycles);
                   }),
                   "ns"));
  layer.set("noc.ns_per_flit_hop",
            metric(median_of(ops, [](const Op& o) {
                     return o.call("noc.run") * 1e9 /
                            static_cast<double>(o.uniform.xbar_traversals);
                   }),
                   "ns"));
  layer.set("noc.idle_router_fraction",
            metric(static_cast<double>(uc.idle_active_cycles) /
                       static_cast<double>(uc.active_cycles),
                   "ratio"));
  layer.set("noc.flit_hops",
            metric(static_cast<double>(uc.xbar_traversals), "count"));
  layer.set("noc.buffer_writes",
            metric(static_cast<double>(uc.buffer_writes), "count"));
  layer.set("noc.vc_allocs", metric(static_cast<double>(uc.vc_allocs), "count"));
  layer.set("noc.sa_grants",
            metric(static_cast<double>(uc.sa_arbitrations), "count"));
  layer.set("noc.packets", metric(static_cast<double>(first.packets), "count"));
  layer.set("parallel.cpu_util",
            metric(median_of(ops, [](const Op& o) {
                     return o.noc_cpu_s / o.call("noc.run");
                   }),
                   "ratio"));
  // One shard is its own serial run: the speed-up is 1 by construction.
  layer.set("parallel.speedup",
            metric(serial_run_s.empty() ? 1.0
                                        : median(serial_run_s) / noc_run_s,
                   "x"));
  layer.set("sprint.build_s", metric(call_median("sprint.build"), "s"));
  layer.set("sprint.floorplan_s", metric(call_median("sprint.floorplan"), "s"));
  layer.set("power.estimate_s", metric(call_median("power.estimate"), "s"));
  layer.set("thermal.steady_s", metric(call_median("thermal.steady"), "s"));
  layer.set("thermal.transient_s",
            metric(call_median("thermal.transient"), "s"));
  layer.set("thermal.transient_steps",
            metric(static_cast<double>(first.thermal_steps), "count"));
  layer.set("mem.run_s", metric(call_median("mem.run"), "s"));
  layer.set("mem.tile_cycles",
            metric(static_cast<double>(first.tile_cycles), "cycles"));
  layer.set("mem.dram_reads", metric(static_cast<double>(first.mem.reads), "count"));
  layer.set("mem.dram_writes",
            metric(static_cast<double>(first.mem.writes), "count"));
  layer.set("mem.queue_peak",
            metric(static_cast<double>(first.mem.queue_peak), "count"));
  layer.set("mem.mcast_replications",
            metric(static_cast<double>(first.mcast_replications), "count"));

  if (args.trace) {
    // Self time per layer: a span's duration minus the part its children
    // cover.  Spans nest one level (op -> call), so a call's self time is
    // its duration and the op's is what the calls leave over.
    std::map<std::string, double> self_total;
    double op_total = 0.0;
    std::vector<std::map<std::string, double>> per_op(ops.size());
    const std::vector<Span>& spans = recorder.spans();
    for (const Span& s : spans) {
      const double d = s.end - s.start;
      auto& m = per_op[static_cast<std::size_t>(s.op)];
      m[layer_of(s.name)] += d;
      if (s.parent < 0) op_total += d;
      else m["bench"] -= d;
    }
    const char* layers[] = {"noc",     "parallel", "sprint", "power",
                            "thermal", "mem",      "bench"};
    for (const char* l : layers) {
      std::vector<double> v;
      for (std::size_t i = 0; i < ops.size(); i += 2) v.push_back(per_op[i][l]);
      for (double x : v) self_total[l] += x;
      layer.set(std::string(l) + ".self_s", metric(median(v), "s"));
      layer.set(std::string(l) + ".share",
                metric(op_total > 0 ? self_total[l] / op_total : 0.0, "ratio"));
    }
    std::vector<double> traced, untraced;
    for (const Op& o : ops)
      (o.id % 2 == 0 ? traced : untraced).push_back(cycles_per_s(o));
    layer.set("trace.cycles_per_s_delta",
              metric(untraced.empty() ? 0.0 : median(traced) - median(untraced),
                     "1/s"));
    layer.set("trace.spans", metric(static_cast<double>(spans.size()), "count"));
    if (!args.trace_out.empty() &&
        !json::write_file(args.trace_out, recorder.chrome_trace()))
      failures.push_back("could not write " + args.trace_out);
  }

  json::Value host = json::Value::object();
  host.set("nproc", static_cast<long long>(sysconf(_SC_NPROCESSORS_ONLN)));
  host.set("loadavg_1min_start", load_start);
  host.set("loadavg_1min_end", load_end);
  host.set("compiler", NOCBENCH_COMPILER);
  host.set("build_type", NOCBENCH_BUILD_TYPE);
  host.set("ipo", static_cast<bool>(NOCBENCH_IPO));
#ifdef __OPTIMIZE__
  host.set("optimized", true);
#else
  host.set("optimized", false);
#endif
  host.set("sim_threads", sim_threads);

  json::Value op_rates = json::Value::array();
  json::Value op_setup = json::Value::array();
  for (const Op& o : ops) {
    op_rates.push_back(cycles_per_s(o));
    op_setup.push_back(o.setup_s);
  }
  json::Value fails = json::Value::array();
  for (const std::string& f : failures) fails.push_back(f);
  json::Value out = json::Value::object();
  out.set("workload", args.workload);
  out.set("seed", args.seed);
  out.set("digest", first.digest.hex());
  if (!serial_digest.empty()) out.set("serial_digest", serial_digest);
  out.set("ops", static_cast<long long>(ops.size()));
  out.set("ops_failed", failed);
  out.set("failures", std::move(fails));
  out.set("op_cycles_per_s", std::move(op_rates));
  out.set("op_setup_s", std::move(op_setup));
  out.set("host", std::move(host));
  out.set("end_to_end", std::move(e2e));
  out.set("per_layer", std::move(layer));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
