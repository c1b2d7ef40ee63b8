// nocsprint_cli — one command-line entry point for the whole library.
//
// Modes (key=value arguments):
//   mode=plan      workload=<name> [scheme=noc|full|fine|non]
//       -> the sprint controller's decision for one workload
//   mode=simulate  [scenario keys] [warmup=2000] [measure=10000]
//                  [injection=0.1]
//       -> one cycle-accurate run with latency/power/percentiles
//   mode=sweep     [scenario keys] [rates=start:step:end] [threads=0]
//       -> latency-throughput curve (1000 warmup + 6000 measured cycles
//          per point)
//   Scenario keys (sprint::Scenario, shared with serve jobs): level=<k>
//   [traffic=uniform] [seed=1] [scheme=noc|full] [width=4 height=4
//   classes=1|2 pipeline=5|3 ...] [protocol=true] [sim_threads=0]
//   [topology=mesh|torus|ring_circulant|hamming|file] [topo_file=<path>]
//   [ring_skip=4] [faults=true fault_flip_rate=... fault_seed=...]
//       a non-mesh topology= sprints on that graph (docs/TOPOLOGY.md)
//       with up*/down* routing certified deadlock-free at build time;
//       faults=true adds end-to-end protection and a livelock watchdog
//       (README "Robustness").
//   mode=thermal   level=<k> [floorplan=identity|thermal]
//       -> steady-state heat map + peak temperature
//   mode=serve     [serve_port=0] [serve_dir=serve-state] [serve_workers=2]
//       -> crash-safe campaign daemon: line-delimited JSON over TCP with a
//          write-ahead job ledger, admission control, retry/timeout
//          supervision, and a result cache (protocol: docs/SERVE.md)
//
// Observability (simulate and sweep modes, all off by default — see
// README "Observability"):
//   trace=path.json         Chrome trace-event file (chrome://tracing /
//                           Perfetto); trace_sample=N sets the counter
//                           sampling window in cycles (default 256)
//   report=path.json        machine-readable JSON run report
//   metrics=path.json       metrics-registry snapshot (counters/gauges)
//
// Checkpoint/restore (see docs/SNAPSHOT_FORMAT.md):
//   mode=simulate checkpoint=run.nocsnap checkpoint_every=5000
//       -> periodic autosave of the full simulation state
//   mode=simulate restore=run.nocsnap
//       -> resume a checkpointed run (same config required); results are
//          bit-identical to the uninterrupted run
//   mode=sweep checkpoint=sweep.manifest.json
//       -> per-task completion ledger; a killed sweep re-run with the same
//          arguments skips every already-finished point
//
// Signals: simulate, sweep, and serve install SIGINT/SIGTERM handlers —
// the first signal checkpoints (simulate: checkpoint= snapshot; sweep: the
// task manifest; serve: every in-flight job) and exits 130; a second
// signal kills the process the ordinary way.
//
// Examples:
//   ./nocsprint_cli mode=plan workload=canneal
//   ./nocsprint_cli mode=simulate level=4 injection=0.2 scheme=full
//   ./nocsprint_cli mode=sweep level=8 rates=0.05:0.05:0.5
//   ./nocsprint_cli mode=thermal level=4 floorplan=thermal
//   ./nocsprint_cli mode=simulate topology=ring_circulant ring_skip=4 level=8
//   ./nocsprint_cli mode=serve serve_port=4517 serve_dir=campaign
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cmp/perf_model.hpp"
#include "common/config.hpp"
#include "common/metrics.hpp"
#include "common/shutdown.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"
#include "noc/parallel_sweep.hpp"
#include "power/chip_power.hpp"
#include "serve/server.hpp"
#include "sprint/floorplanner.hpp"
#include "sprint/scenario.hpp"
#include "sprint/sprint_controller.hpp"
#include "sprint/topology.hpp"
#include "thermal/grid.hpp"
#include "thermal/pcm.hpp"

using namespace nocs;

namespace {

/// Opens/closes the global trace session around a mode's run when
/// `trace=` is set; a no-op for an empty path.
class TraceSession {
 public:
  explicit TraceSession(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) trace::begin(path_);
  }
  ~TraceSession() {
    if (!path_.empty() && trace::end())
      std::printf("trace written to %s (load in chrome://tracing or "
                  "https://ui.perfetto.dev)\n",
                  path_.c_str());
  }

 private:
  std::string path_;
};

int mode_plan(const Config& cfg) {
  const std::string workload = cfg.get_string("workload", "dedup");
  const std::string scheme = cfg.get_string("scheme", "noc");
  cfg.reject_unknown();
  const MeshShape mesh(4, 4);
  const cmp::PerfModel perf(mesh.size());
  const power::ChipPowerModel chip{power::ChipPowerParams{}};
  const thermal::PcmModel pcm{thermal::PcmParams{}};
  const sprint::SprintController ctl(mesh, perf, chip, pcm);
  const auto suite = cmp::parsec_suite(mesh.size());
  const auto& w = cmp::find_workload(suite, workload);

  sprint::SprintMode mode = sprint::SprintMode::kNocSprinting;
  if (scheme == "full") mode = sprint::SprintMode::kFullSprinting;
  else if (scheme == "fine") mode = sprint::SprintMode::kFineGrained;
  else if (scheme == "non") mode = sprint::SprintMode::kNonSprinting;
  else if (scheme != "noc") throw std::invalid_argument("bad scheme");

  const sprint::SprintPlan p = ctl.plan(w, mode);
  std::printf("workload     %s\nscheme       %s\nlevel        %d\n",
              p.workload.c_str(), sprint::to_string(p.mode), p.level);
  std::printf("active nodes ");
  for (NodeId id : p.active) std::printf("%d ", id);
  std::printf("\nspeedup      %.2fx\ncore power   %.1f W\n", p.speedup,
              p.core_power);
  std::printf("noc power    %.2f W\nchip power   %.1f W\nduration     ",
              p.noc_power, p.chip_power);
  if (p.sprint_duration >= 10.0) std::printf("sustainable\n");
  else std::printf("%.2f s\n", p.sprint_duration);
  return 0;
}

int mode_simulate(const Config& cfg) {
  install_shutdown_handlers();
  const sprint::Scenario sc = sprint::Scenario::from_config(cfg);
  noc::SimConfig sim = sprint::simulate_window(cfg);
  sim.trace_sample = static_cast<Cycle>(cfg.get_int("trace_sample", 256));
  noc::CheckpointConfig ckpt;
  ckpt.save_path = cfg.get_string("checkpoint", "");
  ckpt.every = static_cast<Cycle>(cfg.get_int("checkpoint_every", 0));
  ckpt.restore_path = cfg.get_string("restore", "");
  // Ctrl-C / SIGTERM: checkpoint (when configured) instead of dying mid-run.
  ckpt.stop_flag = shutdown_flag();
  const std::string report = cfg.get_string("report", "");
  const std::string metrics = cfg.get_string("metrics", "");
  const std::string trace_path = cfg.get_string("trace", "");
  cfg.reject_unknown();

  sprint::ScenarioNetwork net = sc.build(sc.seed());
  const TraceSession trace_session(trace_path);
  if (!ckpt.restore_path.empty())
    std::printf("restoring from %s\n", ckpt.restore_path.c_str());
  const noc::SimResults r = sc.run(net, sim, ckpt);
  if (r.interrupted && shutdown_requested()) {
    std::printf("interrupted by signal %d at cycle %llu\n",
                shutdown_signal(),
                static_cast<unsigned long long>(r.cycles));
    if (!ckpt.save_path.empty())
      std::printf("checkpoint flushed to %s; resume with restore=%s\n",
                  ckpt.save_path.c_str(), ckpt.save_path.c_str());
    else
      std::printf("no checkpoint= configured, partial run discarded\n");
    return 130;
  }

  const auto power_est = sc.power(net, r);
  const sprint::NetworkBundle& b = net.bundle;
  std::printf("scheme           %s (routing %s)\n", sc.full() ? "full" : "noc",
              b.routing->name());
  if (const noc::Topology* topo = sc.topology()) {
    std::printf("topology         %s (%d nodes, %zu directed links)\n",
                topo->kind().c_str(), topo->num_nodes(),
                topo->links().size());
    std::printf("active nodes     ");
    for (NodeId id : b.endpoints) std::printf("%d ", id);
    std::printf("\ndeadlock check   ok (%d channels, %d dependencies)\n",
                b.deadlock.channels_used, b.deadlock.dependencies);
  }
  std::printf("avg latency      %.2f cycles (p50 %.1f, p99 %.1f)\n",
              r.avg_packet_latency, r.p50_latency, r.p99_latency);
  std::printf("avg hops         %.2f\n", r.avg_hops);
  std::printf("accepted rate    %.4f flits/cycle/node\n", r.accepted_rate);
  std::printf("packets          %llu (saturated: %s)\n",
              static_cast<unsigned long long>(r.packets_ejected),
              r.saturated ? "yes" : "no");
  std::printf("network power    %.2f mW (routers %.2f, links %.2f)\n",
              power_est.total() * 1e3, power_est.routers.total() * 1e3,
              (power_est.link_dynamic + power_est.link_leakage) * 1e3);
  if (sc.faults().enabled) {
    const noc::ResilienceCounters& rs = r.resilience;
    std::printf(
        "resilience       retx %llu (timeouts %llu), corrupted %llu, "
        "dropped %llu, dups %llu\n",
        static_cast<unsigned long long>(rs.retransmissions),
        static_cast<unsigned long long>(rs.timeouts),
        static_cast<unsigned long long>(rs.corrupted_packets),
        static_cast<unsigned long long>(rs.dropped_packets),
        static_cast<unsigned long long>(rs.duplicates));
    std::printf("fault activity   corrupted flits %llu, reroutes %llu, "
                "wake failures %llu\n",
                static_cast<unsigned long long>(r.counters.flits_corrupted),
                static_cast<unsigned long long>(r.counters.reroutes),
                static_cast<unsigned long long>(r.counters.wake_failures));
    if (r.hung)
      std::printf("WATCHDOG FIRED: no flit progress\n%s", r.diagnostic.c_str());
  }

  if (!report.empty() &&
      noc::write_report(report,
                        sc.report(net, r, sim.injection_rate, "simulate")))
    std::printf("report written to %s\n", report.c_str());

  if (!metrics.empty()) {
    MetricsRegistry reg;
    r.export_metrics(reg);
    b.network->stats().export_metrics(reg);
    power_est.export_metrics(reg);
    if (reg.write_json(metrics))
      std::printf("metrics written to %s\n", metrics.c_str());
  }
  return 0;
}

int mode_sweep(const Config& cfg) {
  install_shutdown_handlers();
  const sprint::Scenario sc = sprint::Scenario::from_config(cfg);
  const std::vector<double> rates =
      sprint::parse_rates(cfg.get_string("rates", "0.05:0.05:0.5"));
  const int threads = static_cast<int>(cfg.get_int("threads", 0));
  noc::SimConfig sim = sprint::sweep_window();
  sim.trace_sample = static_cast<Cycle>(cfg.get_int("trace_sample", 256));
  const std::string manifest_path = cfg.get_string("checkpoint", "");
  const std::string report = cfg.get_string("report", "");
  const std::string trace_path = cfg.get_string("trace", "");
  cfg.reject_unknown();
  const TraceSession trace_session(trace_path);

  // checkpoint= names a task manifest: each finished point is recorded
  // immediately, and a re-run with the same arguments replays completed
  // points instead of re-simulating them.
  snapshot::TaskManifest manifest(manifest_path,
                                  noc::sweep_fingerprint(rates, sc.seed()));
  // One independent network (and fault injector) per point, seeded per
  // task: results are identical for any threads= value (threads=1 is the
  // plain serial loop), and sim_threads= shards each point's tick loop
  // without changing them either.
  const auto points = noc::resumable_sweep_injection(
      [&](const noc::SweepTask& task) {
        sprint::ScenarioNetwork net = sc.build(task.seed);
        noc::SimConfig point_sim = sim;
        point_sim.injection_rate = task.injection_rate;
        // Wire the signal flag into every point: on SIGINT/SIGTERM the
        // running points stop cooperatively and stay off the manifest, so
        // the interrupted sweep resumes exactly where it was killed.
        noc::CheckpointConfig point_ckpt;
        point_ckpt.stop_flag = shutdown_flag();
        return sc.run(net, point_sim, point_ckpt);
      },
      rates, sc.seed(), &manifest, threads, shutdown_flag());

  Table t({"rate", "latency", "p99", "accepted", "saturated"});
  std::size_t finished = 0;
  for (const auto& pt : points) {
    if (pt.results.interrupted) continue;
    ++finished;
    t.add_row({Table::fmt(pt.injection_rate, 3),
               Table::fmt(pt.results.avg_packet_latency, 2),
               Table::fmt(pt.results.p99_latency, 1),
               Table::fmt(pt.results.accepted_rate, 4),
               pt.results.saturated ? "yes" : "no"});
  }
  t.print();

  if (shutdown_requested() && finished < points.size()) {
    std::printf("interrupted by signal %d after %zu of %zu point(s)\n",
                shutdown_signal(), finished, points.size());
    if (manifest.enabled())
      std::printf("manifest flushed to %s; re-run the same command to "
                  "resume\n",
                  manifest_path.c_str());
    else
      std::printf("no checkpoint= manifest configured, finished points "
                  "were discarded\n");
    return 130;
  }

  if (!report.empty()) {
    json::Value arr = json::Value::array();
    for (const auto& pt : points)
      arr.push_back(sprint::Scenario::point_report(pt.results,
                                                   pt.injection_rate));
    if (noc::write_report(report, sc.sweep_report("mode", std::move(arr))))
      std::printf("report written to %s\n", report.c_str());
  }
  return 0;
}

int mode_serve(const Config& cfg) {
  // Arm signals before recovery: a SIGTERM during a long ledger replay
  // already drains cleanly.
  install_shutdown_handlers();
  const serve::ServerOptions opts = serve::ServerOptions::from_config(cfg);
  cfg.reject_unknown();
  serve::Server server(opts);
  std::printf("serving on %s:%d (state %s, %d worker(s))\n",
              opts.host.c_str(), server.port(), opts.dir.c_str(),
              opts.limits.workers);
  if (server.scheduler().recovered_jobs() > 0)
    std::printf("recovered %zu interrupted job(s) from the ledger\n",
                server.scheduler().recovered_jobs());
  std::fflush(stdout);  // scripts wait for this line before connecting
  server.run();
  std::printf("drained cleanly\n");
  return 0;
}

int mode_thermal(const Config& cfg) {
  const int level = static_cast<int>(cfg.get_int("level", 4));
  const bool thermal_fp = cfg.get_string("floorplan", "identity") == "thermal";
  cfg.reject_unknown();
  const MeshShape mesh(4, 4);
  const power::ChipPowerParams chip{};
  const thermal::GridThermalModel model(thermal::GridThermalParams{}, 12.0,
                                        12.0);
  std::vector<Watts> powers(16, chip.core_gated + chip.l2_tile +
                                    chip.noc_gated_node);
  for (NodeId id : sprint::active_set(mesh, level, 0))
    powers[static_cast<std::size_t>(id)] =
        chip.core_active + chip.l2_tile + chip.noc_per_node;
  const auto positions = thermal_fp
                             ? sprint::thermal_aware_floorplan(mesh, 0).positions
                             : sprint::identity_floorplan(mesh).positions;
  const auto field = model.solve_steady(
      thermal::make_cmp_floorplan(mesh, 12.0, 12.0, powers, positions));
  std::printf("level %d, %s floorplan: peak %.2f K, avg %.2f K\n\n", level,
              thermal_fp ? "thermal-aware" : "identity", field.peak(),
              field.average());
  std::printf("%s", thermal::render_heatmap(field, 32, 16).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config cfg = Config::from_args(argc, argv);
    const std::string mode = cfg.get_string("mode", "plan");
    // Each mode reads all of its keys and calls cfg.reject_unknown()
    // before it builds anything: a typo fails fast with a near-miss
    // suggestion instead of after a long run.
    if (mode == "plan") return mode_plan(cfg);
    if (mode == "simulate") return mode_simulate(cfg);
    if (mode == "sweep") return mode_sweep(cfg);
    if (mode == "thermal") return mode_thermal(cfg);
    if (mode == "serve") return mode_serve(cfg);
    std::fprintf(stderr,
                 "unknown mode '%s' (plan|simulate|sweep|thermal|serve)\n",
                 mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fflush(stdout);  // keep the error after the mode's buffered output
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
