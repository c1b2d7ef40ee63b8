// The serve daemon's real workloads: TaskRunner/Aggregator implementations
// that execute cycle-accurate simulations for `simulate` and `sweep` jobs
// (sharing seeds, defaults, and report shape with the CLI batch modes, so
// a daemon campaign is bit-identical to a direct run) plus the `selftest`
// kind, a simulator-free exercise of the scheduler's retry/timeout/
// cancellation machinery for tests and smoke checks.
#pragma once

#include <string>
#include <vector>

#include "serve/scheduler.hpp"
#include "sprint/scenario.hpp"

namespace nocs::serve {

/// A simulate or sweep job's params, read the way the CLI reads them:
/// the scenario keys, then the run window (simulate: warmup=, measure=,
/// injection=; sweep: the fixed sweep window and rates=).
struct SimJob {
  sprint::Scenario scenario;
  noc::SimConfig sim;
  std::vector<double> rates;  ///< sweep only
};

/// Reads `spec` into a SimJob, then refuses unknown keys.  Throws
/// std::invalid_argument on any bad param — validate_spec runs it at
/// submit, so a typo is a 400, never a task that fails into quarantine.
SimJob read_sim_job(const JobSpec& spec);

/// TaskRunner executing simulations.  `state_dir` ("" = off) holds one
/// snapshot per in-flight task: a cancelled task (drain or timeout)
/// checkpoints there via CheckpointConfig::stop_flag and the next attempt
/// resumes from it, so a drained campaign loses no simulated cycles.
TaskRunner make_sim_runner(std::string state_dir);

/// Aggregator shaping final results like the CLI reports: `simulate`
/// lifts its single task's report to the top level, `sweep` collects
/// `points` in rate order, `selftest` collects per-task echoes.
Aggregator make_sim_aggregator();

}  // namespace nocs::serve
