// Heap-allocation counter behind proc.allocs_per_req.
//
// alloc_count.cpp replaces the global operator new family for the whole
// benchmark binary.  Every allocation bumps a thread-local counter (no
// atomics, so the untraced runs pay one increment per allocation); the
// simulation runs single-threaded on the main thread, so the main thread's
// count is the program's.
#pragma once

#include <cstdint>

namespace pathbench {

/// Allocations made by the calling thread since it started.
std::uint64_t threadAllocations();

}  // namespace pathbench
