// End-of-run ledger check for the benches that build a core::Testbed.
#pragma once

#include <cstdio>
#include <cstdlib>

#include "core/testbed.hpp"

namespace edgesim::bench {

/// Exit 1 when `bed`'s controller ledger does not balance
/// (EdgeController::ledgerViolations), naming `run` and each violation on
/// stderr.  Prints nothing when it balances, so a bench's report stays
/// byte for byte what it was.
inline void requireLedger(core::Testbed& bed, const char* run) {
  const auto violations = bed.controller().ledgerViolations();
  if (violations.empty()) return;
  for (const auto& violation : violations) {
    std::fprintf(stderr, "LEDGER FAILED (%s): %s\n", run, violation.c_str());
  }
  std::exit(1);
}

}  // namespace edgesim::bench
