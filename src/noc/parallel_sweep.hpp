// Parallel drivers for embarrassingly-parallel simulation batches: the
// injection-rate sweeps behind the latency-throughput curves and the
// random-mapping samplers of the Figure 11 methodology.
//
// Each task builds its own Network inside the caller-supplied runner — the
// simulator is single-threaded by design, so parallelism comes from running
// independent simulations, never from sharing one.  Every task receives a
// deterministic seed derived from (base_seed, task index) via
// nocs::task_seed(), which makes the batch bit-identical to running the
// same runner serially in task order, regardless of thread count or
// completion order.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "noc/simulator.hpp"

namespace nocs::noc {

/// One unit of parallel work: which point it is and the seed to use.
struct SweepTask {
  std::size_t index = 0;         ///< position in the batch
  double injection_rate = 0.0;   ///< offered load for this task
  std::uint64_t seed = 0;        ///< deterministic per-task seed
};

/// Builds a fresh Network, seeds it with `task.seed`, runs one simulation
/// at `task.injection_rate`, and returns the results.
using SweepRunner = std::function<SimResults(const SweepTask&)>;

/// Runs `run` once per rate (task i gets rates[i] and
/// task_seed(base_seed, i)) across `num_threads` workers (0 = default
/// thread count) and returns the points in rate order.
std::vector<SweepPoint> parallel_sweep_injection(
    const SweepRunner& run, const std::vector<double>& rates,
    std::uint64_t base_seed, int num_threads = 0);

/// Runs `run` for `num_samples` tasks at a fixed injection rate (task i
/// gets task_seed(base_seed, i)) and returns results in task order — the
/// random-mapping sampling loop of fig11.
std::vector<SimResults> parallel_samples(const SweepRunner& run,
                                         std::size_t num_samples,
                                         double injection_rate,
                                         std::uint64_t base_seed,
                                         int num_threads = 0);

// --- resumable batches ------------------------------------------------------
//
// The resumable variants pair a batch with a snapshot::TaskManifest: tasks
// already recorded in the manifest are replayed from their stored results
// (the JSON layer round-trips doubles bit-exactly) instead of re-simulated,
// and each finished task is recorded immediately, so a killed sweep
// restarts from the last completed task.  A null or disabled manifest
// degrades to the plain parallel batch.

/// Canonical manifest fingerprint for an injection sweep: task count, base
/// seed, and every rate, formatted bit-exactly.  Reusing a manifest whose
/// fingerprint differs (rates, seed, or count changed) starts fresh.
std::string sweep_fingerprint(const std::vector<double>& rates,
                              std::uint64_t base_seed);

/// parallel_sweep_injection with per-task resume through `manifest`.
///
/// `stop` (optional) is a cooperative shutdown flag (common/shutdown's
/// process flag, or a CancellationToken's): once set, no new task starts,
/// and a task interrupted mid-run (the runner wired the same flag into
/// its CheckpointConfig) is *not* recorded — its `results.interrupted`
/// stays true in the returned vector, and tasks never started keep
/// default results with `interrupted` set.  The manifest therefore only
/// ever holds complete, bit-exact task results.
std::vector<SweepPoint> resumable_sweep_injection(
    const SweepRunner& run, const std::vector<double>& rates,
    std::uint64_t base_seed, snapshot::TaskManifest* manifest,
    int num_threads = 0, const std::atomic<bool>* stop = nullptr);

}  // namespace nocs::noc
