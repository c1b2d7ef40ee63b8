// The resumable batch engine behind every multi-simulation experiment:
// the CLI's injection sweep, the PARSEC suite of Figures 9 and 10, and
// the rate x mapping sweeps of Figure 11.
//
// Task i = 0..n-1 runs on ParallelFor.  Each task builds its own networks
// and writes only its own output slot, so a batch is bit-identical to the
// serial loop for any thread count.  Paired with a snapshot::TaskManifest,
// tasks the manifest already holds are replayed from their recorded JSON
// (doubles round-trip bit-exactly) instead of re-run, and every finished
// task is recorded the moment it ends, so a killed batch restarts from
// its last completed task.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>

#include "common/json.hpp"
#include "common/snapshot.hpp"

namespace nocs {

/// Runs task i and returns its manifest payload, or std::nullopt when a
/// stop request cut the task short (a partial result is never recorded).
using BatchTask = std::function<std::optional<json::Value>(std::size_t)>;

/// Restores task i's outputs from the payload an earlier run recorded.
using BatchReplay = std::function<void(std::size_t, const json::Value&)>;

/// Replays every task `manifest` holds, then runs the rest across
/// `num_threads` workers (<= 0 picks ParallelFor's default) and records
/// each finished payload.  Once `stop` (optional; common/shutdown's flag
/// or a CancellationToken's) is set, no new task starts: a task never
/// started is neither run nor replayed, so callers mark their slots
/// unfinished up front.  A null or disabled manifest records nothing.
void run_batch(std::size_t n, const BatchTask& run, const BatchReplay& replay,
               snapshot::TaskManifest* manifest = nullptr,
               int num_threads = 0, const std::atomic<bool>* stop = nullptr);

}  // namespace nocs
