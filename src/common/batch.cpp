#include "common/batch.hpp"

#include <vector>

#include "common/assert.hpp"
#include "common/parallel.hpp"

namespace nocs {

void run_batch(std::size_t n, const BatchTask& run, const BatchReplay& replay,
               snapshot::TaskManifest* manifest, int num_threads,
               const std::atomic<bool>* stop) {
  NOCS_EXPECTS(run != nullptr && replay != nullptr);
  if (manifest != nullptr && !manifest->enabled()) manifest = nullptr;
  std::vector<std::size_t> todo;
  todo.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (manifest != nullptr && manifest->completed(i))
      replay(i, manifest->result(i));
    else
      todo.push_back(i);
  }
  ParallelFor(
      todo.size(),
      [&](std::size_t k) {
        if (stop != nullptr && stop->load(std::memory_order_acquire)) return;
        std::optional<json::Value> result = run(todo[k]);
        if (result && manifest != nullptr)
          manifest->record(todo[k], std::move(*result));
      },
      num_threads);
}

}  // namespace nocs
