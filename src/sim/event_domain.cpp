#include "sim/event_domain.hpp"

#include <algorithm>

namespace edgesim {

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
  ++queueSize_;
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
  --queueSize_;
  return earliest;
}

bool EventDomain::runFront() {
  const Key key = popKey();
  // The closure leaves its slot before the slot is freed and before it
  // runs: a handler that schedules may reallocate the slot table or reuse
  // this very slot, and its own handle no longer reports pending.
  std::function<void()> fn;
  if (!slots_->release(key.slot, fn)) return false;  // cancelled
  now_ = key.when;
  ++processed_;
  fn();
  return true;
}

}  // namespace edgesim
