#include "noc/parallel_sweep.hpp"

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"

namespace nocs::noc {

std::vector<SweepPoint> parallel_sweep_injection(
    const SweepRunner& run, const std::vector<double>& rates,
    std::uint64_t base_seed, int num_threads) {
  NOCS_EXPECTS(run != nullptr);
  std::vector<SweepPoint> points(rates.size());
  ParallelFor(
      rates.size(),
      [&](std::size_t i) {
        const SweepTask task{i, rates[i], task_seed(base_seed, i)};
        const trace::HostScope span(
            "sweep[" + std::to_string(i) +
                "] rate=" + std::to_string(rates[i]),
            "sweep", static_cast<int>(i));
        points[i].injection_rate = rates[i];
        points[i].results = run(task);
      },
      num_threads);
  return points;
}

std::vector<SimResults> parallel_samples(const SweepRunner& run,
                                         std::size_t num_samples,
                                         double injection_rate,
                                         std::uint64_t base_seed,
                                         int num_threads) {
  NOCS_EXPECTS(run != nullptr);
  std::vector<SimResults> results(num_samples);
  ParallelFor(
      num_samples,
      [&](std::size_t i) {
        const SweepTask task{i, injection_rate, task_seed(base_seed, i)};
        const trace::HostScope span("sample[" + std::to_string(i) + "]",
                                    "sweep", static_cast<int>(i));
        results[i] = run(task);
      },
      num_threads);
  return results;
}

std::string sweep_fingerprint(const std::vector<double>& rates,
                              std::uint64_t base_seed) {
  std::string fp = "sweep:n=" + std::to_string(rates.size()) +
                   ";seed=" + std::to_string(base_seed) + ";rates=";
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (i != 0) fp += ',';
    fp += json::format_number(rates[i]);
  }
  return fp;
}

namespace {

bool stop_set(const std::atomic<bool>* stop) {
  return stop != nullptr && stop->load(std::memory_order_acquire);
}

}  // namespace

std::vector<SweepPoint> resumable_sweep_injection(
    const SweepRunner& run, const std::vector<double>& rates,
    std::uint64_t base_seed, snapshot::TaskManifest* manifest,
    int num_threads, const std::atomic<bool>* stop) {
  if ((manifest == nullptr || !manifest->enabled()) && stop == nullptr)
    return parallel_sweep_injection(run, rates, base_seed, num_threads);
  NOCS_EXPECTS(run != nullptr);

  std::vector<SweepPoint> points(rates.size());
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    points[i].injection_rate = rates[i];
    if (manifest != nullptr && manifest->completed(i)) {
      points[i].results = sim_results_from_json(manifest->result(i));
    } else {
      points[i].results.interrupted = true;  // cleared when the task runs
      todo.push_back(i);
    }
  }
  ParallelFor(
      todo.size(),
      [&](std::size_t k) {
        const std::size_t i = todo[k];
        if (stop_set(stop)) return;  // shutdown: claim no new work
        const SweepTask task{i, rates[i], task_seed(base_seed, i)};
        const trace::HostScope span(
            "sweep[" + std::to_string(i) +
                "] rate=" + std::to_string(rates[i]),
            "sweep", static_cast<int>(i));
        points[i].results = run(task);
        // A run the shutdown flag cut short is partial — keep it out of
        // the manifest so the resumed sweep redoes it from scratch.
        if (points[i].results.interrupted) return;
        if (manifest != nullptr)
          manifest->record(i, to_json(points[i].results));
      },
      num_threads);
  return points;
}

}  // namespace nocs::noc
