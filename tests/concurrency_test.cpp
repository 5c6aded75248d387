// Concurrency suite for the threaded substrate that remains: parallelFor
// behind the bench sweeps, and the one-writer rule of the recorders.
//
// Run under ThreadSanitizer (cmake -DEDGESIM_SANITIZE=tsan, ctest
// -L concurrency).  The simulation runs one event queue on one thread, so
// the recorders have one writer and no locks:
//
//   * parallelFor: every index runs exactly once, across threads (a
//     data-race probe as well: TSan flags unsynchronized access).
//   * TraceRecorder / metrics::Recorder: request-ID allocation, span
//     recording and sample counters stay exact over many interleaved
//     requests from the owner thread; a recording read back on another
//     thread after recording stopped sees every event; and a write from a
//     second thread aborts with a message naming the owner thread (the
//     SloWatchdog's worst-request table too).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "metrics/recorder.hpp"
#include "sim/simulation.hpp"
#include "telemetry/slo_watchdog.hpp"
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

// ------------------------------------------ one-writer recorders ----

TEST(RecorderConcurrency, TraceRequestIdsAreUniqueUnderContention) {
  // Many logical requesters interleaved on the owner thread: every ID is
  // unique and the sequence is dense (no lost increments).
  trace::TraceRecorder trace;
  constexpr int kRequesters = 8;
  constexpr int kPerRequester = 2000;
  std::vector<std::vector<trace::RequestId>> ids(kRequesters);
  for (int i = 0; i < kPerRequester; ++i) {
    for (int r = 0; r < kRequesters; ++r) ids[r].push_back(trace.newRequest());
  }

  std::set<trace::RequestId> unique;
  for (const auto& perRequester : ids) {
    unique.insert(perRequester.begin(), perRequester.end());
  }
  EXPECT_EQ(unique.size(),
            static_cast<std::size_t>(kRequesters) * kPerRequester);
  EXPECT_EQ(*unique.rbegin(), static_cast<trace::RequestId>(kRequesters) *
                                  kPerRequester);
}

TEST(RecorderConcurrency, TraceSpansFromManyThreadsAllSurviveToExport) {
  // Interleaved open spans from many logical requesters, recorded on the
  // owner thread and read back on another one once recording stopped.
  trace::TraceRecorder trace;
  constexpr int kRequesters = 6;
  constexpr int kPerRequester = 500;
  for (int i = 0; i < kPerRequester; ++i) {
    std::vector<trace::SpanId> open;
    for (int r = 0; r < kRequesters; ++r) {
      const auto rid = trace.newRequest();
      open.push_back(trace.beginSpan(rid, "work", "test", SimTime::millis(i)));
      trace.instant(rid, "tick", "test", SimTime::millis(i),
                    {{"requester", std::to_string(r)}});
    }
    for (const trace::SpanId span : open) {
      trace.endSpan(span, SimTime::millis(i + 1));
    }
  }

  std::vector<trace::TraceSpan> spans;
  std::size_t instants = 0;
  std::thread reader([&trace, &spans, &instants] {
    spans = trace.spans();
    instants = trace.instants().size();
  });
  reader.join();

  ASSERT_EQ(spans.size(),
            static_cast<std::size_t>(kRequesters) * kPerRequester);
  EXPECT_EQ(trace.spanCount(), spans.size());
  std::set<trace::SpanId> spanIds;
  for (const auto& span : spans) {
    EXPECT_FALSE(span.open);
    spanIds.insert(span.id);
    const auto byId = trace.spanById(span.id);
    ASSERT_TRUE(byId.has_value());
    EXPECT_EQ(byId->id, span.id);
  }
  EXPECT_EQ(spanIds.size(), spans.size());  // IDs never collide
  EXPECT_EQ(instants, static_cast<std::size_t>(kRequesters) * kPerRequester);
}

TEST(RecorderConcurrency, MetricsSamplesAndFailuresAreNotLost) {
  metrics::Recorder recorder;
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 1000;
  for (int i = 0; i < kPerWriter; ++i) {
    for (int w = 0; w < kWriters; ++w) {
      const std::string series = "series/" + std::to_string(w % 4);
      recorder.addSample(series, static_cast<double>(i));
      if (i % 10 == 0) {
        // A measured request: its time_total, or a failure.
        if (w % 2 == 0) {
          recorder.addSample(series, SimTime::millis(i).toSeconds());
        } else {
          recorder.addFailure();
        }
      }
    }
  }

  std::size_t samples = 0;
  for (const auto& name : recorder.seriesNames()) {
    samples += recorder.series(name)->count();
  }
  // addSample contributions plus the successful requests.
  EXPECT_EQ(samples, static_cast<std::size_t>(kWriters) * kPerWriter +
                         (kWriters / 2) * (kPerWriter / 10));
  EXPECT_EQ(recorder.failureCount(),
            static_cast<std::size_t>(kWriters / 2) * (kPerWriter / 10));
}

// A write from any thread but the constructing one is a programming error:
// it aborts, naming the owner thread, instead of racing.
TEST(OneWriterDeathTest, TraceRecorderAbortsOnASecondWriterThread) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        trace::TraceRecorder trace;
        std::thread([&trace] {
          trace.instant(0, "tick", "test", SimTime::zero());
        }).join();
      },
      "TraceRecorder is written only by its owner thread [0-9]+");
}

TEST(OneWriterDeathTest, MetricsRecorderAbortsOnASecondWriterThread) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        metrics::Recorder recorder;
        std::thread([&recorder] { recorder.addSample("series", 1.0); })
            .join();
      },
      "Recorder is written only by its owner thread [0-9]+");
}

TEST(OneWriterDeathTest, SloWatchdogAbortsOnASecondWriterThread) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Simulation sim(1);
        telemetry::MetricsRegistry registry;
        telemetry::SloWatchdog watchdog(sim, registry);
        std::thread([&watchdog] {
          watchdog.observeRequest("nginx", 0.5, 1);
        }).join();
      },
      "SloWatchdog is written only by its owner thread [0-9]+");
}

}  // namespace
}  // namespace edgesim::core
