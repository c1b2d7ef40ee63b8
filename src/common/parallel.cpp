#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "common/assert.hpp"

namespace nocs {

int default_thread_count() {
  if (const char* env = std::getenv("NOCS_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<int>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

int default_sim_thread_count() {
  if (const char* env = std::getenv("NOCS_SIM_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<int>(parsed);
  }
  return 1;
}

namespace {

/// One no-op/pause iteration of a spin-wait loop.
inline void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Members (shards, the calling thread included) of every live multi-shard
/// BarrierTeam in the process.  Teams share the cores — a sweep pool whose
/// tasks each shard a simulation runs several at once — so whether
/// spinning steals the timeslice of the thread doing the work is decided
/// over all of them, not per team.
std::atomic<int> g_team_members{0};

/// True while the live team members outnumber the cores (never when the
/// core count is unknown).
bool teams_oversubscribed() {
  static const int cores =
      static_cast<int>(std::thread::hardware_concurrency());
  return cores >= 1 && g_team_members.load() > cores;
}

}  // namespace

struct BarrierTeam::Impl {
  // Phase hand-off: run() writes `body`, then release-publishes a new
  // epoch; a worker acquire-loads the epoch, so the body pointer (and all
  // state the caller prepared before run()) is visible when it executes.
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<int> remaining{0};
  std::atomic<bool> stopping{false};
  const std::function<void(int)>* body = nullptr;

  // Slow path: workers park here when no phase arrives within the spin
  // budget (network idle between simulations).
  std::mutex mu;
  std::condition_variable cv;

  std::mutex error_mu;
  std::exception_ptr first_error;

  std::vector<std::thread> workers;

  // Spin budget before parking: phases arrive back-to-back mid-simulation,
  // so the fast path almost never parks; ~10^4 pause iterations is a few
  // microseconds — far shorter than one wake-from-cv latency.  While the
  // live team members outnumber the cores, spinning steals the timeslice
  // from the threads actually doing the work, so workers park at once and
  // the caller yields instead of pausing.
  static constexpr int kSpinLimit = 20000;

  void record_error() {
    std::lock_guard<std::mutex> lock(error_mu);
    if (!first_error) first_error = std::current_exception();
  }

  void worker_loop(int shard) {
    std::uint64_t seen = 0;
    for (;;) {
      int spins = 0;
      while (epoch.load(std::memory_order_acquire) == seen) {
        if (stopping.load(std::memory_order_acquire)) return;
        if (++spins >= kSpinLimit || teams_oversubscribed()) {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] {
            return epoch.load(std::memory_order_acquire) != seen ||
                   stopping.load(std::memory_order_acquire);
          });
          spins = 0;
          continue;
        }
        spin_pause();
      }
      seen = epoch.load(std::memory_order_acquire);
      try {
        (*body)(shard);
      } catch (...) {
        record_error();
      }
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
};

BarrierTeam::BarrierTeam(int num_shards)
    : impl_(new Impl), num_shards_(num_shards) {
  NOCS_EXPECTS(num_shards >= 1);
  if (num_shards > 1)
    g_team_members.fetch_add(num_shards);
  impl_->workers.reserve(static_cast<std::size_t>(num_shards - 1));
  for (int s = 1; s < num_shards; ++s)
    impl_->workers.emplace_back([impl = impl_, s] { impl->worker_loop(s); });
}

BarrierTeam::~BarrierTeam() {
  impl_->stopping.store(true, std::memory_order_release);
  {
    // Empty critical section: a worker between its parked-predicate check
    // and the actual sleep holds `mu`, so taking it here guarantees the
    // notify below lands after the worker is really waiting.
    std::lock_guard<std::mutex> lock(impl_->mu);
  }
  impl_->cv.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  if (num_shards_ > 1)
    g_team_members.fetch_sub(num_shards_);
  delete impl_;
}

void BarrierTeam::run(const std::function<void(int)>& body) {
  NOCS_EXPECTS(body != nullptr);
  if (num_shards_ == 1) {
    body(0);
    return;
  }
  impl_->body = &body;
  impl_->remaining.store(num_shards_ - 1, std::memory_order_relaxed);
  impl_->epoch.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
  }
  impl_->cv.notify_all();

  try {
    body(0);  // shard 0 runs inline on the calling thread
  } catch (...) {
    impl_->record_error();
  }
  while (impl_->remaining.load(std::memory_order_acquire) != 0) {
    if (teams_oversubscribed()) std::this_thread::yield();
    else spin_pause();
  }

  if (impl_->first_error) {
    std::exception_ptr err;
    std::swap(err, impl_->first_error);
    std::rethrow_exception(err);
  }
}

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;   // signalled when a task is queued
  std::condition_variable idle_cv;   // signalled when a task completes
  // One deque per priority lane, drained high-to-low (see TaskPriority).
  std::deque<std::function<void()>> lanes[3];
  std::vector<std::thread> workers;
  int in_flight = 0;  // queued + currently executing
  bool stopping = false;

  bool any_queued() const {
    return !lanes[0].empty() || !lanes[1].empty() || !lanes[2].empty();
  }

  std::function<void()> pop_locked() {
    for (auto& lane : lanes) {
      if (lane.empty()) continue;
      std::function<void()> task = std::move(lane.front());
      lane.pop_front();
      return task;
    }
    return nullptr;
  }

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock, [&] { return stopping || any_queued(); });
        task = pop_locked();
        if (task == nullptr) return;  // stopping and drained
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mu);
        --in_flight;
      }
      idle_cv.notify_all();
    }
  }
};

ThreadPool::ThreadPool(int num_threads)
    : impl_(new Impl),
      num_workers_(num_threads <= 0 ? default_thread_count() : num_threads) {
  impl_->workers.reserve(static_cast<std::size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i)
    impl_->workers.emplace_back([impl = impl_] { impl->worker_loop(); });
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::submit(std::function<void()> task) {
  submit(TaskPriority::kNormal, std::move(task));
}

void ThreadPool::submit(TaskPriority priority, std::function<void()> task) {
  NOCS_EXPECTS(task != nullptr);
  const auto lane = static_cast<std::size_t>(priority);
  NOCS_EXPECTS(lane < 3);
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    NOCS_EXPECTS(!impl_->stopping);
    impl_->lanes[lane].push_back(std::move(task));
    ++impl_->in_flight;
  }
  impl_->work_cv.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->idle_cv.wait(lock, [&] { return impl_->in_flight == 0; });
}

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body,
                 int num_threads) {
  NOCS_EXPECTS(body != nullptr);
  if (n == 0) return;

  // The default divides the cores among sharded simulations: with
  // NOCS_SIM_THREADS=k every task's tick already runs k threads.
  int workers = num_threads > 0
                    ? num_threads
                    : std::max(1, default_thread_count() /
                                      default_sim_thread_count());
  if (static_cast<std::size_t>(workers) > n)
    workers = static_cast<int>(n);

  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Dynamic scheduling: each worker repeatedly claims the next index, so
  // uneven task durations (e.g. saturated sweep points) balance out.
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;

  auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  {
    ThreadPool pool(workers);
    for (int w = 0; w < workers; ++w) pool.submit(drain);
    pool.wait_idle();
  }

  if (first_error) std::rethrow_exception(first_error);
}

void run_tasks(const std::vector<std::function<void()>>& tasks,
               int num_threads) {
  ParallelFor(tasks.size(), [&](std::size_t i) { tasks[i](); }, num_threads);
}

}  // namespace nocs
