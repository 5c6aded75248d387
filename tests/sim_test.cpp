// Tests for the discrete-event simulation engine: ordering, cancellation,
// determinism, periodic timers, and time formatting.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace edgesim {
namespace {

using namespace timeliterals;

TEST(SimTime, ConversionsRoundTrip) {
  EXPECT_EQ((5_s).toNanos(), 5'000'000'000);
  EXPECT_EQ((100_ms).toNanos(), 100'000'000);
  EXPECT_EQ((50_us).toNanos(), 50'000);
  EXPECT_EQ((7_ns).toNanos(), 7);
  EXPECT_DOUBLE_EQ((1500_ms).toSeconds(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::seconds(0.25).toMillis(), 250.0);
}

TEST(SimTime, ArithmeticAndComparison) {
  EXPECT_EQ(1_s + 500_ms, 1500_ms);
  EXPECT_EQ(2_s - 500_ms, 1500_ms);
  EXPECT_EQ((100_ms) * 3, 300_ms);
  EXPECT_EQ((1_s) / 4, 250_ms);
  EXPECT_LT(999_ms, 1_s);
  EXPECT_EQ((1_s).scaled(0.5), 500_ms);
}

TEST(SimTime, ToStringPicksUnits) {
  EXPECT_EQ((2_s).toString(), "2.000s");
  EXPECT_EQ((250_ms).toString(), "250.00ms");
  EXPECT_EQ((50_us).toString(), "50.0us");
  EXPECT_EQ((7_ns).toString(), "7ns");
}

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(30_ms, [&] { order.push_back(3); });
  sim.schedule(10_ms, [&] { order.push_back(1); });
  sim.schedule(20_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30_ms);
}

TEST(Simulation, EqualTimestampsRunInSchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5_ms, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, NestedSchedulingAdvancesTime) {
  Simulation sim;
  SimTime inner;
  sim.schedule(10_ms, [&] {
    sim.schedule(15_ms, [&] { inner = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner, 25_ms);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  auto handle = sim.schedule(10_ms, [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulation, CancelAfterFireIsNoop) {
  Simulation sim;
  auto handle = sim.schedule(1_ms, [] {});
  sim.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash
}

TEST(Simulation, HandleOutlivesSimulation) {
  EventHandle handle;
  {
    Simulation sim;
    handle = sim.schedule(1_ms, [] {});
    EXPECT_TRUE(handle.pending());
  }
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // the simulation is gone: a safe no-op
}

TEST(Simulation, CancelInsideOwnHandlerIsNoop) {
  Simulation sim;
  EventHandle self;
  bool pendingInside = true;
  self = sim.schedule(1_ms, [&] {
    pendingInside = self.pending();
    self.cancel();
  });
  sim.run();
  EXPECT_FALSE(pendingInside);
  EXPECT_EQ(sim.processedEvents(), 1u);
}

TEST(Simulation, StaleHandleNeverTouchesReusedSlot) {
  Simulation sim;
  auto fired = sim.schedule(1_ms, [] {});
  auto cancelled = sim.schedule(2_ms, [] {});
  cancelled.cancel();
  sim.run();
  // Both slots are free again; new events take them over.
  int ran = 0;
  std::vector<EventHandle> fresh;
  for (int i = 0; i < 4; ++i) {
    fresh.push_back(sim.schedule(1_ms, [&ran] { ++ran; }));
  }
  for (auto* stale : {&fired, &cancelled}) {
    EXPECT_FALSE(stale->pending());
    stale->cancel();
    stale->cancel();
  }
  for (const auto& handle : fresh) EXPECT_TRUE(handle.pending());
  sim.run();
  EXPECT_EQ(ran, 4);
}

TEST(Simulation, CancelFromAnotherEvent) {
  Simulation sim;
  bool ran = false;
  auto victim = sim.schedule(20_ms, [&] { ran = true; });
  sim.schedule(10_ms, [&] { victim.cancel(); });
  sim.run();
  EXPECT_FALSE(ran);
  // Cancelled events do not advance the clock when drained.
  EXPECT_EQ(sim.now(), 10_ms);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(SimTime::millis(i * 10), [&] { ++count; });
  }
  sim.runUntil(45_ms);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(sim.now(), 45_ms);
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulation, RunUntilWithEmptyQueueAdvancesClock) {
  Simulation sim;
  sim.runUntil(1_s);
  EXPECT_EQ(sim.now(), 1_s);
}

TEST(Simulation, StopHaltsProcessing) {
  Simulation sim;
  int count = 0;
  sim.schedule(1_ms, [&] {
    ++count;
    sim.stop();
  });
  sim.schedule(2_ms, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.stopped());
  sim.run();  // resumes with remaining events
  EXPECT_EQ(count, 2);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule(1_ms, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, ProcessedAndPendingCounts) {
  Simulation sim;
  auto h1 = sim.schedule(1_ms, [] {});
  sim.schedule(2_ms, [] {});
  EXPECT_EQ(sim.pendingEvents(), 2u);
  h1.cancel();
  sim.run();
  EXPECT_EQ(sim.processedEvents(), 1u);
}

TEST(Simulation, RngDeterminismAcrossRuns) {
  auto runOnce = [](std::uint64_t seed) {
    Simulation sim(seed);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 5; ++i) {
      sim.schedule(SimTime::millis(i), [&] { values.push_back(sim.rng()()); });
    }
    sim.run();
    return values;
  };
  EXPECT_EQ(runOnce(99), runOnce(99));
  EXPECT_NE(runOnce(99), runOnce(100));
}

// Property: an arbitrary batch of random schedules always executes in
// nondecreasing time order.
class EventOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(EventOrderProperty, NondecreasingExecutionTimes) {
  Simulation sim(static_cast<std::uint64_t>(GetParam()));
  std::vector<SimTime> fired;
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 1);
  for (int i = 0; i < 200; ++i) {
    const auto delay = SimTime::micros(
        static_cast<std::int64_t>(rng.uniformInt(0, 1'000'000)));
    sim.schedule(delay, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(fired.size(), 200u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1], fired[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderProperty, ::testing::Range(1, 16));

TEST(PeriodicTimer, FiresAtPeriodUntilStopped) {
  Simulation sim;
  std::vector<SimTime> ticks;
  PeriodicTimer timer;
  timer.start(sim, 100_ms, [&] {
    ticks.push_back(sim.now());
    return ticks.size() < 5;
  });
  sim.run();
  ASSERT_EQ(ticks.size(), 5u);
  EXPECT_EQ(ticks[0], SimTime::zero());  // default: fires immediately
  EXPECT_EQ(ticks[4], 400_ms);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, InitialDelayAndCancel) {
  Simulation sim;
  int ticks = 0;
  PeriodicTimer timer;
  timer.start(sim, 50_ms, [&] {
    ++ticks;
    return true;
  }, 200_ms);
  sim.schedule(320_ms, [&] { timer.cancel(); });
  sim.run();
  // Fires at 200, 250, 300; cancelled before 350.
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTimer, RestartReplacesPrevious) {
  Simulation sim;
  int a = 0;
  int b = 0;
  PeriodicTimer timer;
  timer.start(sim, 10_ms, [&] {
    ++a;
    return a < 100;
  });
  timer.start(sim, 10_ms, [&] {
    ++b;
    return b < 3;
  });
  sim.run();
  EXPECT_EQ(a, 0);  // first schedule was replaced before running
  EXPECT_EQ(b, 3);
}

TEST(Simulation, TimePrefixFormat) {
  Simulation sim;
  sim.schedule(1500_ms, [] {});
  sim.run();
  EXPECT_EQ(sim.timePrefix(), "[t=   1.500000s] ");
}

// ---- time domains ----------------------------------------------------------

TEST(TimeDomains, SingleDomainByDefault) {
  Simulation sim;
  EXPECT_EQ(sim.domainCount(), 1u);
  EXPECT_EQ(sim.activeDomainId(), kControlDomain);
}

TEST(TimeDomains, ScheduleOnRunsInTargetDomainAfterLookahead) {
  Simulation sim;
  const DomainId d = sim.addDomain("edge");
  sim.connectDomains(kControlDomain, d, 5_ms);
  DomainId ranIn = kControlDomain;
  SimTime ranAt = SimTime::zero();
  sim.scheduleOn(d, SimTime::zero(), [&] {
    ranIn = sim.activeDomainId();
    ranAt = sim.now();
  });
  sim.run();
  EXPECT_EQ(ranIn, d);
  // Zero-delay cross-domain posts are clamped to the channel lookahead so
  // sequential and parallel drivers agree on timing.
  EXPECT_EQ(ranAt, 5_ms);
}

TEST(TimeDomains, SequentialRunInterleavesDomainsByTimestamp) {
  Simulation sim;
  const DomainId d = sim.addDomain("edge");
  sim.connectDomains(kControlDomain, d, 1_ms);
  std::vector<int> order;
  sim.scheduleAt(10_ms, [&] { order.push_back(0); });
  sim.scheduleOnAt(d, 5_ms, [&] { order.push_back(1); });
  sim.scheduleOnAt(d, 15_ms, [&] { order.push_back(2); });
  sim.scheduleAt(20_ms, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3}));
}

TEST(TimeDomains, DomainScopeRoutesSetupScheduling) {
  Simulation sim;
  const DomainId d = sim.addDomain("edge");
  DomainId ranIn = kControlDomain;
  {
    Simulation::DomainScope scope(sim, d);
    sim.schedule(1_ms, [&] { ranIn = sim.activeDomainId(); });
  }
  sim.run();
  EXPECT_EQ(ranIn, d);
}

TEST(TimeDomains, DomainClocksAdvanceIndependently) {
  Simulation sim;
  const DomainId d = sim.addDomain("edge");
  sim.connectDomains(kControlDomain, d, 1_ms);
  sim.scheduleOnAt(d, 30_ms, [] {});
  sim.scheduleAt(10_ms, [] {});
  sim.run();
  // run() drives every domain to the final event's time; per-domain clocks
  // are still independently owned.
  EXPECT_EQ(sim.domain(d).now(), 30_ms);
  EXPECT_GE(sim.now(), 10_ms);
}

TEST(TimeDomains, ReschedulingInsideTargetDomainStaysLocal) {
  Simulation sim;
  const DomainId d = sim.addDomain("edge");
  sim.connectDomains(kControlDomain, d, 2_ms);
  std::vector<SimTime> ticks;
  sim.scheduleOn(d, SimTime::zero(), [&] {
    ticks.push_back(sim.now());
    sim.schedule(3_ms, [&] { ticks.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(ticks.size(), 2u);
  EXPECT_EQ(ticks[0], 2_ms);   // clamped to lookahead
  EXPECT_EQ(ticks[1], 5_ms);   // local re-schedule, no extra hop
}

TEST(TimeDomains, LookaheadTightensToSmallestLink) {
  Simulation sim;
  const DomainId d = sim.addDomain("edge");
  sim.connectDomains(kControlDomain, d, 5_ms);
  sim.connectDomains(kControlDomain, d, 2_ms);  // a faster link appears
  EXPECT_EQ(sim.domainLookahead(kControlDomain, d), 2_ms);
  SimTime ranAt = SimTime::zero();
  sim.scheduleOn(d, SimTime::zero(), [&] { ranAt = sim.now(); });
  sim.run();
  EXPECT_EQ(ranAt, 2_ms);
}

}  // namespace
}  // namespace edgesim
