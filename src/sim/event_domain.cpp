#include "sim/event_domain.hpp"

#include <algorithm>
#include <chrono>

#include "sim/domain_observer.hpp"
#include "sim/simulation.hpp"

namespace edgesim {

namespace {
// Domain currently dispatching an event on this thread; see
// EventDomain::current().
thread_local EventDomain* tlsCurrentDomain = nullptr;

// RAII guard so nested dispatch (the sequential driver runs several domains
// on one thread) restores the outer domain.
class CurrentDomainScope {
 public:
  explicit CurrentDomainScope(EventDomain* domain)
      : saved_(tlsCurrentDomain) {
    tlsCurrentDomain = domain;
  }
  ~CurrentDomainScope() { tlsCurrentDomain = saved_; }
  CurrentDomainScope(const CurrentDomainScope&) = delete;
  CurrentDomainScope& operator=(const CurrentDomainScope&) = delete;

 private:
  EventDomain* saved_;
};
}  // namespace

// ---- DomainChannel ---------------------------------------------------------

DomainChannel::DomainChannel(EventDomain& from, EventDomain& to,
                             SimTime lookahead, std::string via)
    : from_(from),
      to_(to),
      lookaheadNanos_(lookahead.toNanos()),
      via_(std::move(via)) {
  ES_ASSERT_MSG(lookahead > SimTime::zero(),
                "cross-domain lookahead must be positive");
  ES_ASSERT_MSG(&from != &to, "channel endpoints must differ");
}

void DomainChannel::tighten(SimTime lookahead, const std::string& via) {
  ES_ASSERT_MSG(lookahead > SimTime::zero(),
                "cross-domain lookahead must be positive");
  std::int64_t observed = lookaheadNanos_.load(std::memory_order_relaxed);
  while (lookahead.toNanos() < observed &&
         !lookaheadNanos_.compare_exchange_weak(observed, lookahead.toNanos(),
                                                std::memory_order_relaxed)) {
  }
  // The tightest latency defines the bound, so the link that set it owns the
  // channel's identity for attribution (setup phase: single-threaded).
  if (!via.empty() && lookahead.toNanos() <= observed) via_ = via;
}

void DomainChannel::push(SimTime when, std::function<void()> fn) {
  ES_ASSERT(fn != nullptr);
  {
    std::lock_guard lock(mutex_);
    pending_.push_back(Message{when, nextSeq_++, std::move(fn)});
    pendingCount_.store(pending_.size(), std::memory_order_relaxed);
    nonEmpty_.store(true, std::memory_order_release);
  }
}

SimTime DomainChannel::safeBound() const {
  return SimTime::nanos(from_.nowNanosAtomic()) + lookahead();
}

std::size_t DomainChannel::drainInto(EventDomain& target) {
  ES_ASSERT(&target == &to_);
  if (!nonEmpty_.load(std::memory_order_acquire)) return 0;
  std::vector<Message> batch;
  {
    std::lock_guard lock(mutex_);
    batch.swap(pending_);
    pendingCount_.store(0, std::memory_order_relaxed);
    nonEmpty_.store(false, std::memory_order_release);
  }
  // Senders push in their own execution order, but stamps are send-time plus
  // a per-message latency, so a later push may carry an earlier stamp.
  // Restore (when, push order) so admission into the receiver's queue -- and
  // therefore the receiver's tie-break sequence numbers -- is deterministic.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const Message& a, const Message& b) {
                     if (a.when != b.when) return a.when < b.when;
                     return a.seq < b.seq;
                   });
  for (auto& message : batch) {
    target.scheduleAt(message.when, std::move(message.fn));
  }
  return batch.size();
}

// ---- EventDomain -----------------------------------------------------------

EventDomain::EventDomain(Simulation& sim, DomainId id, std::string name,
                         Rng* sharedRng, std::uint64_t rngSeed)
    : sim_(sim), id_(id), name_(std::move(name)) {
  if (sharedRng != nullptr) {
    rng_ = sharedRng;
  } else {
    ownedRng_ = std::make_unique<Rng>(rngSeed);
    rng_ = ownedRng_.get();
  }
}

EventDomain* EventDomain::current() { return tlsCurrentDomain; }

EventHandle EventDomain::schedule(SimTime delay, std::function<void()> fn) {
  ES_ASSERT_MSG(delay >= SimTime::zero(), "negative delay");
  return scheduleAt(now_ + delay, std::move(fn));
}

EventHandle EventDomain::scheduleAt(SimTime when, std::function<void()> fn) {
  ES_ASSERT_MSG(when >= now_, "scheduling into the past");
  ES_ASSERT(fn != nullptr);
  const std::uint32_t slot = slots_->acquire(std::move(fn));
  std::vector<Key>& heap = when - now_ < kNearHorizon ? near_ : far_;
  heap.push_back(Key{when, nextSeq_++, slot});
  std::push_heap(heap.begin(), heap.end(), KeyAfter{});
  queueSize_.fetch_add(1, std::memory_order_relaxed);
  return EventHandle{slots_, slot, slots_->generation(slot)};
}

EventDomain::Key EventDomain::popKey() {
  const Key* key = front();
  ES_ASSERT(key != nullptr);
  // front() points at the front of the heap that holds the earliest key.
  std::vector<Key>& heap = key == near_.data() ? near_ : far_;
  const Key earliest = *key;
  std::pop_heap(heap.begin(), heap.end(), KeyAfter{});
  heap.pop_back();
  queueSize_.fetch_sub(1, std::memory_order_relaxed);
  return earliest;
}

bool EventDomain::runFront() {
  const Key key = popKey();
  // The closure leaves its slot before the slot is freed and before it
  // runs: a handler that schedules may reallocate the slot table or reuse
  // this very slot, and its own handle no longer reports pending.
  std::function<void()> fn;
  if (!slots_->release(key.slot, fn)) return false;  // cancelled
  setNow(key.when);
  processed_.fetch_add(1, std::memory_order_relaxed);
  CurrentDomainScope scope(this);
  fn();
  return true;
}

std::size_t EventDomain::advance(SimTime horizon) {
  DomainObserver* const observer = observer_;
  std::chrono::steady_clock::time_point wallStart;
  if (observer != nullptr) wallStart = std::chrono::steady_clock::now();
  const SimTime clockBefore = now_;
  idleAtHorizon_.store(false, std::memory_order_relaxed);
  std::size_t dispatched = 0;
  std::size_t lifts = 0;
  const DomainChannel* gating = nullptr;  // argmin channel of the last bound
  for (;;) {
    // Bound BEFORE drain: a message pushed after this read was sent at a
    // sender clock >= the one folded into `bound`, so its stamp is >= bound
    // and the strict `when < bound` cut below cannot miss it.
    SimTime bound = SimTime::max();
    gating = nullptr;
    for (const DomainChannel* channel : inbound_) {
      const SimTime b = channel->safeBound();
      if (b < bound) {
        bound = b;
        gating = channel;
      }
    }
    for (DomainChannel* channel : inbound_) channel->drainInto(*this);

    bool progressed = false;
    std::size_t ranThisRound = 0;
    while (const Key* key = front()) {
      if (key->when > horizon || key->when >= bound) break;
      if (!runFront()) continue;
      ++dispatched;
      ++ranThisRound;
      progressed = true;
    }

    // Null-message progress: lift the commit clock to everything proven
    // safe, so downstream domains' bounds advance even when we ran nothing.
    const SimTime target = std::min(horizon, bound);
    if (target > now_) {
      if (ranThisRound == 0) ++lifts;
      setNow(target);
      progressed = true;
    }
    if (!progressed) break;
  }
  const bool idle = now_ >= horizon && nextEventTime() > horizon;
  idleAtHorizon_.store(idle, std::memory_order_release);
  if (observer != nullptr) {
    DomainObserver::AdvanceInfo info;
    info.domain = id_;
    info.dispatched = dispatched;
    info.lifts = lifts;
    info.clockMoved = now_ > clockBefore;
    info.idleAtHorizon = idle;
    info.boundedBy =
        (!idle && gating != nullptr) ? gating->from().id() : kNoDomainId;
    info.now = now_;
    info.wallStart = wallStart;
    info.wallEnd = std::chrono::steady_clock::now();
    observer->onAdvance(info);
  }
  return dispatched;
}

}  // namespace edgesim
