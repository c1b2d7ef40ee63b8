// Test helper: checks that Network::drained() (flit tallies + hot NIs)
// agrees with the full drained_slow() scan at every cycle boundary.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "noc/network.hpp"

namespace nocs {

/// Counts the cycle boundaries at which drained() disagreed with
/// drained_slow().  (A `true` that the scan refutes already aborts inside
/// drained() under NOCS_ASSERT; a wrong `false` is only caught here.)
struct DrainAgreement {
  std::uint64_t checks = 0;
  std::uint64_t mismatches = 0;

  void check(const noc::Network& net) {
    ++checks;
    if (net.drained() != net.drained_slow()) ++mismatches;
  }
  /// Checks at the top of every tick of `net`, i.e. after the previous
  /// one.  Takes the network's pre-tick hook.
  void watch(noc::Network& net) {
    net.set_pre_tick_hook([this, &net](Cycle) { check(net); });
  }
  void expect_agreed() const {
    EXPECT_GT(checks, 1u);
    EXPECT_EQ(mismatches, 0u) << "of " << checks << " cycle boundaries";
  }
};

}  // namespace nocs
