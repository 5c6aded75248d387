// Concurrency suite for the threaded substrate that remains: parallelFor
// behind the bench sweeps, and the thread-safe Recorder / TraceRecorder.
//
// Run under ThreadSanitizer (cmake -DEDGESIM_SANITIZE=tsan, ctest
// -L concurrency) -- several tests here are primarily data-race probes:
// they hammer the shared structures from many threads and rely on TSan to
// flag any unsynchronized access, while their functional assertions pin
// the invariants callers depend on:
//
//   * parallelFor: every index runs exactly once, across threads.
//   * TraceRecorder / metrics::Recorder: request-ID allocation, span
//     recording and sample counters stay exact under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "metrics/recorder.hpp"
#include "trace/trace_recorder.hpp"
#include "util/parallel_for.hpp"

namespace edgesim::core {
namespace {

// -------------------------------------------------------- parallelFor ----

TEST(ParallelFor, CoversRange) {
  std::vector<std::atomic<int>> hits(64);
  parallelFor(64, 8, [&hits](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, WithNoTasksReturns) {
  std::atomic<int> calls{0};
  parallelFor(0, 2, [&calls](std::size_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

// ------------------------------------ recorder thread-safety probes ----

TEST(RecorderConcurrency, TraceRequestIdsAreUniqueUnderContention) {
  // Regression probe for the unguarded `++nextRequest_`: racing allocators
  // used to be able to hand out duplicate request IDs (and trip TSan).
  trace::TraceRecorder trace;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<trace::RequestId>> ids(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, &ids, t] {
      ids[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) ids[t].push_back(trace.newRequest());
    });
  }
  for (auto& thread : threads) thread.join();

  std::set<trace::RequestId> unique;
  for (const auto& perThread : ids) {
    unique.insert(perThread.begin(), perThread.end());
  }
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(*unique.rbegin(), static_cast<trace::RequestId>(kThreads) *
                                  kPerThread);  // dense: no lost increments
}

TEST(RecorderConcurrency, TraceSpansFromManyThreadsAllSurviveToExport) {
  trace::TraceRecorder trace;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 500;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto rid = trace.newRequest();
        const auto span = trace.beginSpan(rid, "work", "test",
                                          SimTime::millis(i));
        trace.instant(rid, "tick", "test", SimTime::millis(i),
                      {{"thread", std::to_string(t)}});
        trace.endSpan(span, SimTime::millis(i + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto spans = trace.spans();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(trace.spanCount(), spans.size());
  std::set<trace::SpanId> spanIds;
  for (const auto& span : spans) {
    EXPECT_FALSE(span.open);
    spanIds.insert(span.id);
    const auto* byId = trace.spanById(span.id);
    ASSERT_NE(byId, nullptr);
    EXPECT_EQ(byId->id, span.id);
  }
  EXPECT_EQ(spanIds.size(), spans.size());  // encoded IDs never collide
  EXPECT_EQ(trace.instants().size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(RecorderConcurrency, MetricsSamplesAndFailuresAreNotLost) {
  // Regression probe for the unguarded samples map / failure counter.
  metrics::Recorder recorder;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      const std::string series = "series/" + std::to_string(t % 4);
      for (int i = 0; i < kPerThread; ++i) {
        recorder.addSample(series, static_cast<double>(i));
        if (i % 10 == 0) {
          metrics::RequestRecord record;
          record.series = series;
          record.total = SimTime::millis(i);
          record.success = (t % 2 == 0);
          recorder.add(std::move(record));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::size_t samples = 0;
  for (const auto& name : recorder.seriesNames()) {
    samples += recorder.series(name)->count();
  }
  // addSample contributions plus the successful add() records.
  EXPECT_EQ(samples, static_cast<std::size_t>(kThreads) * kPerThread +
                         (kThreads / 2) * (kPerThread / 10));
  EXPECT_EQ(recorder.totalRecords(),
            static_cast<std::size_t>(kThreads) * (kPerThread / 10));
  EXPECT_EQ(recorder.failureCount(),
            static_cast<std::size_t>(kThreads / 2) * (kPerThread / 10));
}

}  // namespace
}  // namespace edgesim::core
