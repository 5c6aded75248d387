// Tests for the discrete-event simulation engine: ordering, cancellation,
// determinism, periodic timers, and time formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
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

TEST(Simulation, RunUntilNeverDispatchesPastUntil) {
  // A cancelled entry at or before `until` must not let the next live event
  // run when that event lies beyond `until`.
  Simulation sim;
  bool early = false;
  bool late = false;
  EventHandle cancelled = sim.schedule(1_ms, [&] { early = true; });
  sim.schedule(10_ms, [&] { late = true; });
  cancelled.cancel();
  sim.runUntil(5_ms);
  EXPECT_FALSE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.now(), 5_ms);
  sim.runUntil(10_ms);
  EXPECT_TRUE(late);
  EXPECT_EQ(sim.now(), 10_ms);
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

// ---- key-only heap: reference oracle, slot-table growth, closure lifetime

/// Reference model of one domain's queue: every queued entry in (when, seq)
/// order -- cancelled ones included, since cancellation is lazy -- and the
/// live subset.  Mirrors the sequential driver: step and runUntil prune the
/// cancelled front entries, then run the earliest live one, and runUntil
/// stops at the first live entry beyond `until`.
class ReferenceQueue {
 public:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (when ns, seq)

  Key schedule(std::int64_t delayNs) {
    const Key key{now_ + delayNs, nextSeq_++};
    queued_.insert(key);
    live_.insert(key);
    return key;
  }
  void cancel(const Key& key) { live_.erase(key); }
  /// Skip cancelled entries, then dispatch the first live one.
  std::optional<Key> step() {
    while (!queued_.empty()) {
      const Key key = *queued_.begin();
      queued_.erase(queued_.begin());
      if (live_.erase(key) == 0) continue;
      now_ = key.first;
      return key;
    }
    return std::nullopt;
  }
  /// Drop cancelled front entries; true when the earliest live entry is
  /// due at or before `until`.
  bool liveAtOrBefore(std::int64_t until) {
    while (!queued_.empty() && live_.count(*queued_.begin()) == 0) {
      queued_.erase(queued_.begin());
    }
    return !queued_.empty() && queued_.begin()->first <= until;
  }
  void finishAt(std::int64_t until) { now_ = std::max(now_, until); }
  bool live(const Key& key) const { return live_.count(key) != 0; }
  std::size_t queued() const { return queued_.size(); }
  std::int64_t now() const { return now_; }

 private:
  std::set<Key> queued_;
  std::set<Key> live_;
  std::int64_t now_ = 0;
  std::uint64_t nextSeq_ = 0;
};

/// Drives a Simulation and a ReferenceQueue through the same random
/// operations.  Handlers schedule children; the real handler picks them
/// (ids and delays) and the reference replays that plan when it dispatches
/// the same id, so any divergence shows in the dispatch sequence.
class QueueOracle {
 public:
  explicit QueueOracle(std::uint64_t seed) : sim_(seed), rng_(seed * 31 + 7) {}

  void scheduleTop() { scheduleTop(drawDelay()); }
  void scheduleTop(std::int64_t delay) {
    const int id = nextId_++;
    handles_[id] = sim_.schedule(SimTime::nanos(delay), handler(id));
    track(id, reference_.schedule(delay), delay);
  }
  /// A far key, then -- 1 ns later -- a near key due at the same time:
  /// seq decides, so the far key runs first.
  void scheduleTiedPair() {
    scheduleTop(kHorizon);
    runFor(1);
    scheduleTop(kHorizon - 1);
  }
  void cancelOne() {
    if (keys_.empty()) return;
    // Half the picks aim at a live handle; the rest hit any id, so fired
    // and already-cancelled (stale) handles are cancelled too.
    auto it = keys_.begin();
    std::advance(it, static_cast<long>(rng_.uniformInt(0, keys_.size() - 1)));
    if (rng_.chance(0.5)) {
      for (int tries = 0; tries < 8 && !reference_.live(it->second); ++tries) {
        it = keys_.begin();
        std::advance(it,
                     static_cast<long>(rng_.uniformInt(0, keys_.size() - 1)));
      }
    }
    if (far_.count(it->first) != 0 && reference_.live(it->second)) {
      ++farCancels_;
    }
    handles_[it->first].cancel();
    reference_.cancel(it->second);
  }
  void step() {
    const bool ran = sim_.step();
    const auto key = reference_.step();
    if (key) dispatchReference(*key);
    EXPECT_EQ(ran, key.has_value());
  }
  /// Mostly a few microseconds; one span in five reaches the far heap.
  void runUntil() {
    runFor(rng_.chance(0.2)
               ? kLongDelays[rng_.uniformInt(0, kLongDelays.size() - 1)]
               : static_cast<std::int64_t>(rng_.uniformInt(0, 6'000)));
  }
  void runFor(std::int64_t span) {
    const std::int64_t until = sim_.now().toNanos() + span;
    sim_.runUntil(SimTime::nanos(until));
    while (reference_.liveAtOrBefore(until)) {
      if (const auto key = reference_.step()) dispatchReference(*key);
    }
    reference_.finishAt(until);
  }
  void drain() {
    sim_.run();
    while (const auto key = reference_.step()) dispatchReference(*key);
  }

  /// Same dispatch sequence, clock, queue size and handle states.
  void check() {
    ASSERT_EQ(ran_, expected_);
    ASSERT_EQ(sim_.now().toNanos(), reference_.now());
    ASSERT_EQ(sim_.pendingEvents(), reference_.queued());
    for (const auto& [id, key] : keys_) {
      ASSERT_EQ(handles_.at(id).pending(), reference_.live(key)) << "id " << id;
    }
  }

  Rng& rng() { return rng_; }
  std::size_t dispatched() const { return ran_.size(); }
  /// Cancels that hit a live key in the far heap.
  std::size_t farCancels() const { return farCancels_; }

 private:
  struct Spawn {
    int id;
    std::int64_t delayNs;
  };

  static constexpr std::int64_t kHorizon =
      EventDomain::kNearHorizon.toNanos();
  /// Either side of the near/far split, and TCP's 120 s total timer.
  static constexpr std::array<std::int64_t, 4> kLongDelays{
      kHorizon - 1, kHorizon, kHorizon + 1, 120'000'000'000};

  /// Mostly a few microseconds, drawn from a small set so times tie often;
  /// the rest are the long delays, so keys land in both heaps.
  std::int64_t drawDelay() {
    static constexpr std::array<std::int64_t, 6> kShortDelays{
        0, 1'000, 1'000, 2'000, 3'000, 5'000};
    const auto pick =
        rng_.uniformInt(0, kShortDelays.size() + kLongDelays.size() - 1);
    return pick < kShortDelays.size()
               ? kShortDelays[pick]
               : kLongDelays[pick - kShortDelays.size()];
  }

  std::function<void()> handler(int id) {
    return [this, id] {
      ran_.push_back(id);
      if (!rng_.chance(0.3)) return;
      auto& plan = children_[id];
      const auto count = rng_.uniformInt(1, 2);
      for (std::uint64_t i = 0; i < count; ++i) {
        const Spawn child{nextId_++, drawDelay()};
        plan.push_back(child);
        handles_[child.id] =
            sim_.schedule(SimTime::nanos(child.delayNs), handler(child.id));
      }
    };
  }
  void track(int id, ReferenceQueue::Key key, std::int64_t delayNs) {
    keys_[id] = key;
    ids_[key] = id;
    if (delayNs >= kHorizon) far_.insert(id);
  }
  void dispatchReference(const ReferenceQueue::Key& key) {
    const int id = ids_.at(key);
    expected_.push_back(id);
    const auto plan = children_.find(id);
    if (plan == children_.end()) return;
    for (const Spawn& child : plan->second) {
      track(child.id, reference_.schedule(child.delayNs), child.delayNs);
    }
  }

  Simulation sim_;
  ReferenceQueue reference_;
  Rng rng_;
  int nextId_ = 0;
  std::map<int, EventHandle> handles_;
  std::map<int, ReferenceQueue::Key> keys_;
  std::map<ReferenceQueue::Key, int> ids_;
  std::map<int, std::vector<Spawn>> children_;
  std::vector<int> ran_;
  std::vector<int> expected_;
  std::set<int> far_;  // ids scheduled at least kHorizon ahead
  std::size_t farCancels_ = 0;
};

class EventQueueOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueOracleProperty, MatchesOrderedSetReference) {
  QueueOracle oracle(static_cast<std::uint64_t>(GetParam()));
  for (int op = 0; op < 600; ++op) {
    const auto pick = oracle.rng().uniformInt(0, 99);
    if (pick < 36) {
      oracle.scheduleTop();
    } else if (pick < 40) {
      oracle.scheduleTiedPair();
    } else if (pick < 60) {
      oracle.cancelOne();
    } else if (pick < 85) {
      oracle.step();
    } else {
      oracle.runUntil();
    }
    oracle.check();
    if (HasFatalFailure()) return;
  }
  oracle.drain();
  oracle.check();
  EXPECT_GT(oracle.dispatched(), 100u);
  EXPECT_GT(oracle.farCancels(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueOracleProperty,
                         ::testing::Range(1, 21));

/// A handler's captures, filled from one tag: a closure that reads another
/// closure's storage sees the wrong tag.
struct Payload {
  explicit Payload(std::uint64_t tag)
      : name(64, static_cast<char>('a' + tag % 26)) {
    for (std::size_t i = 0; i < words.size(); ++i) words[i] = tag * 1000 + i;
  }
  bool operator==(const Payload&) const = default;
  std::array<std::uint64_t, 32> words{};
  std::string name;
};

/// A closure too large for std::function's in-place buffer.  With `spawn`
/// set it schedules that many children of its own type (same size, so a
/// freed handler closure is the next child's allocation), then checks its
/// captures; a child checks its captures when it runs.
struct LargeSpawner {
  Simulation* sim;
  int* intactChildren;
  bool* intact;
  std::uint64_t tag;
  int spawn;
  Payload payload{tag};

  void operator()() const {
    if (spawn == 0) {
      *intactChildren += payload == Payload(tag) ? 1 : 0;
      return;
    }
    for (int i = 0; i < spawn; ++i) {
      const std::uint64_t childTag = tag + 1 + static_cast<std::uint64_t>(i);
      sim->schedule(1_ms,
                    LargeSpawner{sim, intactChildren, intact, childTag, 0});
    }
    *intact = payload == Payload(tag);
  }
};

// A running handler that schedules enough events to reallocate its domain's
// slot table -- the first of them reusing the handler's own, already freed,
// slot -- still reads its own captures: the closure left the table before
// it ran.  Covers closures std::function keeps on the heap (large) and in
// place (small and trivially copyable).
TEST(Simulation, HandlerGrowingTheSlotTableKeepsLargeCaptures) {
  Simulation sim;
  int intactChildren = 0;
  bool intact = false;
  sim.schedule(1_ms, LargeSpawner{&sim, &intactChildren, &intact, 7, 4096});
  sim.run();
  EXPECT_TRUE(intact);
  EXPECT_EQ(intactChildren, 4096);
}

TEST(Simulation, HandlerGrowingTheSlotTableKeepsSmallCaptures) {
  struct Probe {
    Simulation* sim;
    std::uint64_t seen = 0;
    std::uint64_t children = 0;
  };
  Simulation sim;
  Probe probe{&sim};
  constexpr std::uint64_t kToken = 0x5eedcafef00dbeefULL;
  // Two trivially copyable words: std::function keeps them in the slot.
  sim.schedule(1_ms, [probe = &probe, token = kToken] {
    for (std::uint64_t i = 0; i < 4096; ++i) {
      probe->sim->schedule(1_ms, [probe, i] { probe->children += i; });
    }
    probe->seen = token;
  });
  sim.run();
  EXPECT_EQ(probe.seen, kToken);
  EXPECT_EQ(probe.children, 4095u * 4096u / 2);
}

/// Counts live copies of each closure's capture, by closure id.
class Tracked {
 public:
  Tracked(std::map<int, int>* live, int id) : live_(live), id_(id) {
    ++(*live_)[id_];
  }
  Tracked(const Tracked& other) : live_(other.live_), id_(other.id_) {
    ++(*live_)[id_];
  }
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { --(*live_)[id_]; }

 private:
  std::map<int, int>* live_;
  int id_;
};

// Every closure is destroyed exactly once: right after it runs, when it
// leaves the queue cancelled, or with the Simulation if still queued.
TEST(Simulation, EveryClosureIsDestroyedExactlyOnce) {
  std::map<int, int> live;
  std::vector<int> ran;
  {
    Simulation sim;
    const auto tracked = [&live, &ran](int id) {
      return [capture = Tracked(&live, id), &ran, id] { ran.push_back(id); };
    };
    sim.schedule(1_ms, tracked(0));
    auto cancelled = sim.schedule(2_ms, tracked(1));
    sim.schedule(3_ms, [&sim, &tracked, capture = Tracked(&live, 2)] {
      sim.schedule(1_ms, tracked(3));  // scheduled from a handler
    });
    auto cancelledFromHandler = sim.schedule(5_ms, tracked(4));
    sim.schedule(4_ms, [&cancelledFromHandler] {
      cancelledFromHandler.cancel();
    });
    sim.schedule(6_ms, tracked(7));
    sim.schedule(10_s, tracked(5));
    auto cancelledQueued = sim.schedule(20_s, tracked(6));
    cancelled.cancel();
    cancelledQueued.cancel();
    for (const int id : {0, 1, 2, 4, 5, 6, 7}) EXPECT_EQ(live[id], 1) << id;

    sim.runUntil(6_ms);
    EXPECT_EQ(ran, (std::vector<int>{0, 3, 7}));
    for (const int id : {0, 1, 2, 3, 4, 7}) EXPECT_EQ(live[id], 0) << id;
    EXPECT_EQ(live[5], 1);  // still queued
    EXPECT_EQ(live[6], 1);  // cancelled, but not yet at the front
  }
  for (const auto& [id, count] : live) EXPECT_EQ(count, 0) << id;
}

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

}  // namespace
}  // namespace edgesim
