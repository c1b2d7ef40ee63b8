// Concurrent BarrierTeams on a shared host: teams whose shards together
// outnumber the cores must still make progress.  Each team alone fits the
// cores, so only a process-wide count of team members can tell that
// spinning waiters would steal the timeslices of the shards doing the
// work.  ctest runs this under a TIMEOUT: a spinning pile-up shows as a
// timeout, not a failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

namespace nocs {
namespace {

TEST(BarrierTeamOversubscription, ConcurrentTeamsFinishEmptyPhases) {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  if (cores < 1 || cores > 16)
    GTEST_SKIP() << "needs a known core count of at most 16 (have " << cores
                 << ")";
  // Four teams of `cores` shards each: one team alone fits the host, four
  // together put 4x the cores' worth of threads (at most 64) on it.
  const int shards = std::max(2, cores);
  constexpr int kTeams = 4;
  constexpr int kPhases = 3000;
  std::atomic<long> bodies{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < kTeams; ++t) {
    drivers.emplace_back([&] {
      BarrierTeam team(shards);
      const std::function<void(int)> body = [&](int) {
        bodies.fetch_add(1, std::memory_order_relaxed);
      };
      for (int i = 0; i < kPhases; ++i) team.run(body);
    });
  }
  for (std::thread& d : drivers) d.join();
  EXPECT_EQ(bodies.load(), static_cast<long>(kTeams) * kPhases * shards);
}

}  // namespace
}  // namespace nocs
