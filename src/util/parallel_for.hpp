// parallelFor: run independent tasks on a few threads, for bench sweeps
// whose points each build a private Testbed (and so share nothing).
#pragma once

#include <cstddef>
#include <functional>

namespace edgesim {

/// Run fn(i) for every i in [0, n) across `threads` threads (0 = hardware
/// concurrency; never more threads than tasks) and return when all have
/// finished.  Tasks are handed out in index order; each runs exactly once.
void parallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& fn);

}  // namespace edgesim
