#include "serve/runner.hpp"

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace nocs::serve {

namespace {

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::string snapshot_path(const std::string& dir, const std::string& job_id,
                          std::size_t index) {
  return dir + "/" + job_id + ".task" + std::to_string(index) + ".nocsnap";
}

/// Runs `attempt_run(allow_restore)`, retrying once from scratch when the
/// first attempt blew up while a snapshot existed — a stale or corrupt
/// per-task snapshot must cost one fresh run, never quarantine the job.
template <typename Fn>
TaskOutcome with_snapshot_recovery(const std::string& snap, Fn attempt_run) {
  try {
    return attempt_run(true);
  } catch (const std::exception& e) {
    if (!snap.empty() && file_exists(snap)) {
      log_message(LogLevel::kWarn,
                  "serve: discarding unusable snapshot %s (%s); re-running "
                  "the task from scratch",
                  snap.c_str(), e.what());
      std::remove(snap.c_str());
      return attempt_run(false);
    }
    throw;
  }
}

/// kind=simulate: one cycle-accurate run, result shaped like the CLI's
/// `mode=simulate report=` document (minus the "mode" key).  kind=sweep,
/// task `index`: the index-th rate of the sweep, run exactly as
/// `mode=sweep` runs it (same per-task seed, same window), so the
/// aggregated points match a direct sweep report bit for bit.
TaskOutcome run_scenario(const JobSpec& spec, std::size_t index,
                         const std::string& snap, const TaskContext& ctx) {
  const SimJob job = read_sim_job(spec);
  const bool sweep = spec.kind == "sweep";
  NOCS_EXPECTS(!sweep || index < job.rates.size());
  noc::SimConfig sim = job.sim;
  if (sweep) sim.injection_rate = job.rates[index];

  return with_snapshot_recovery(snap, [&](bool allow_restore) {
    const sprint::Scenario& sc = job.scenario;
    sprint::ScenarioNetwork net =
        sc.build(sweep ? task_seed(sc.seed(), index) : sc.seed());
    noc::CheckpointConfig ckpt;
    ckpt.stop_flag = ctx.cancel.flag();
    ckpt.on_progress = ctx.report_progress;
    if (!snap.empty()) {
      ckpt.save_path = snap;
      if (allow_restore && file_exists(snap)) ckpt.restore_path = snap;
    }
    const noc::SimResults r = sc.run(net, sim, ckpt);
    if (r.interrupted) return TaskOutcome::cancelled();
    if (!snap.empty()) std::remove(snap.c_str());
    return TaskOutcome::ok(
        sweep ? sprint::Scenario::point_report(r, sim.injection_rate)
              : sc.report(net, r, sim.injection_rate, ""));
  });
}

/// kind=selftest: no simulator, just deterministic sleep/fail/hang knobs
/// so tests and smoke checks can exercise retry, timeout, and drain paths
/// in milliseconds.
TaskOutcome run_selftest(const JobSpec& spec, const TaskContext& ctx) {
  const Config cfg = params_config(spec);
  (void)cfg.get_int("tasks", 1);  // consumed by task_count
  const long long sleep_ms = cfg.get_int("sleep_ms", 5);
  const long long fail_attempts = cfg.get_int("fail_attempts", 0);
  const bool hang = cfg.get_bool("hang", false);
  cfg.reject_unknown();

  if (ctx.attempt <= fail_attempts)
    return TaskOutcome::failed("selftest: induced failure on attempt " +
                               std::to_string(ctx.attempt));
  const auto slice = std::chrono::milliseconds(1);
  if (hang) {
    while (!ctx.cancel.stop_requested()) std::this_thread::sleep_for(slice);
    return TaskOutcome::cancelled();
  }
  for (long long slept = 0; slept < sleep_ms; ++slept) {
    if (ctx.cancel.stop_requested()) return TaskOutcome::cancelled();
    std::this_thread::sleep_for(slice);
    // Progress in "cycles" of one ms each: gives watch streams something
    // real to report without touching the simulator.
    if (ctx.report_progress)
      ctx.report_progress(static_cast<std::uint64_t>(slept + 1));
  }
  json::Value doc = json::Value::object();
  doc.set("task", static_cast<double>(ctx.task_index));
  doc.set("attempt", ctx.attempt);
  return TaskOutcome::ok(std::move(doc));
}

}  // namespace

SimJob read_sim_job(const JobSpec& spec) {
  const Config cfg = params_config(spec);
  const bool sweep = spec.kind == "sweep";
  SimJob job{sprint::Scenario::from_config(cfg),
             sweep ? sprint::sweep_window() : sprint::simulate_window(cfg),
             {}};
  if (sweep)
    job.rates = sprint::parse_rates(cfg.get_string("rates", "0.05:0.05:0.5"));
  cfg.reject_unknown();
  return job;
}

TaskRunner make_sim_runner(std::string state_dir) {
  return [dir = std::move(state_dir)](const JobSpec& spec,
                                      const TaskContext& ctx) -> TaskOutcome {
    if (spec.kind == "selftest") return run_selftest(spec, ctx);
    const std::string snap =
        dir.empty() ? "" : snapshot_path(dir, ctx.job_id, ctx.task_index);
    return run_scenario(spec, ctx.task_index, snap, ctx);
  };
}

Aggregator make_sim_aggregator() {
  return [](const JobSpec& spec,
            const std::vector<json::Value>& results) -> json::Value {
    if (spec.kind == "simulate") {
      json::Value doc = results.at(0);
      doc.set("kind", "simulate");
      return doc;
    }
    json::Value arr = json::Value::array();
    for (const json::Value& r : results) arr.push_back(r);
    if (spec.kind == "sweep")
      return read_sim_job(spec).scenario.sweep_report("kind", std::move(arr));
    json::Value doc = json::Value::object();
    doc.set("kind", spec.kind);
    doc.set("tasks", std::move(arr));
    return doc;
  };
}

}  // namespace nocs::serve
