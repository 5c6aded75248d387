// Heap-allocation counter (library edgesim_alloc_count): the allocation
// gate of bench_telemetry_overhead and the allocation pin of
// trace_store_test.
//
// alloc_count.cpp replaces the global operator new family in every binary
// that links the library.  Every allocation bumps a thread-local counter
// (no atomics); the simulation runs on the calling thread, so the
// difference of two readings around a run is that run's allocation count.
#pragma once

#include <cstdint>

namespace edgesim {

/// Allocations made by the calling thread since it started.
std::uint64_t threadAllocations();

}  // namespace edgesim
