// Lightweight contract-checking macros for the nocsprint libraries.
//
// Following the C++ Core Guidelines (I.6/I.8: prefer Expects()/Ensures()
// style assertions that state preconditions explicitly), we provide macros
// that are always enabled: a cycle-accurate simulator that silently corrupts
// state is worse than one that stops.  The cost is negligible next to the
// simulation work itself.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace nocs::detail {

[[noreturn]] inline void contract_failure(const char* kind, const char* expr,
                                          const char* file, int line) {
  std::fprintf(stderr, "nocsprint: %s failed: (%s) at %s:%d\n", kind, expr,
               file, line);
  std::abort();
}

}  // namespace nocs::detail

/// Precondition check: argument/state validation at API boundaries.
#define NOCS_EXPECTS(cond)                                                \
  ((cond) ? (void)0                                                      \
          : ::nocs::detail::contract_failure("precondition", #cond,      \
                                             __FILE__, __LINE__))

/// Postcondition / internal invariant check.
#define NOCS_ENSURES(cond)                                                \
  ((cond) ? (void)0                                                      \
          : ::nocs::detail::contract_failure("invariant", #cond,         \
                                             __FILE__, __LINE__))

/// Marks unreachable control flow (e.g. exhaustive switch fall-through).
#define NOCS_UNREACHABLE(msg)                                             \
  ::nocs::detail::contract_failure("unreachable", msg, __FILE__, __LINE__)

/// Cross-check of a fast-path shortcut against its slow reference
/// computation (e.g. a `true` from Network::drained()'s flit tally
/// re-verified by the full drained_slow() scan).  Always on, like the
/// other contracts.
#define NOCS_ASSERT(cond)                                                 \
  ((cond) ? (void)0                                                      \
          : ::nocs::detail::contract_failure("slow-path verify", #cond,  \
                                             __FILE__, __LINE__))
