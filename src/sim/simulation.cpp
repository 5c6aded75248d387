#include "sim/simulation.hpp"

#include <algorithm>

#include "sim/domain_observer.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace edgesim {

namespace {
// splitmix64 finalizer: spreads (seed, domain id) into an independent
// per-domain stream seed without consuming draws from the master RNG, so
// adding domains never perturbs the domain-0 stream the goldens depend on.
std::uint64_t domainSeed(std::uint64_t seed, DomainId id) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (id + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Simulation::Simulation(std::uint64_t seed) : seed_(seed), rng_(seed) {
  domains_.push_back(
      std::make_unique<EventDomain>(*this, kControlDomain, "main", &rng_, 0));
}

Simulation::~Simulation() = default;

SimTime Simulation::now() const {
  if (EventDomain* d = EventDomain::current();
      d != nullptr && &d->sim() == this) {
    return d->now();
  }
  return domains_[setupDomain_]->now();
}

Rng& Simulation::rng() { return activeDomain().rng(); }

EventDomain& Simulation::activeDomain() {
  if (EventDomain* d = EventDomain::current();
      d != nullptr && &d->sim() == this) {
    return *d;
  }
  return *domains_[setupDomain_];
}

EventHandle Simulation::schedule(SimTime delay, std::function<void()> fn) {
  return activeDomain().schedule(delay, std::move(fn));
}

EventHandle Simulation::scheduleAt(SimTime when, std::function<void()> fn) {
  return activeDomain().scheduleAt(when, std::move(fn));
}

DomainId Simulation::addDomain(const std::string& name) {
  ES_ASSERT_MSG(!parallelPhase(), "addDomain during a parallel phase");
  ES_ASSERT_MSG(EventDomain::current() == nullptr,
                "addDomain from inside an event");
  const auto id = static_cast<DomainId>(domains_.size());
  domains_.push_back(std::make_unique<EventDomain>(*this, id, name, nullptr,
                                                   domainSeed(seed_, id)));
  domains_.back()->observer_ = observer_;
  return id;
}

void Simulation::connectDomains(DomainId a, DomainId b, SimTime lookahead,
                                const std::string& via) {
  ES_ASSERT_MSG(!parallelPhase(), "connectDomains during a parallel phase");
  ES_ASSERT_MSG(a != b, "connectDomains endpoints must differ");
  ES_ASSERT(a < domains_.size() && b < domains_.size());
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    if (DomainChannel* existing = channelBetween(from, to)) {
      existing->tighten(lookahead, via);
      continue;
    }
    auto channel = std::make_unique<DomainChannel>(
        *domains_[from], *domains_[to], lookahead, via);
    domains_[from]->addOutbound(channel.get());
    domains_[to]->addInbound(channel.get());
    channelIndex_.emplace(std::pair{from, to}, channel.get());
    channels_.push_back(std::move(channel));
  }
}

void Simulation::setDomainObserver(DomainObserver* observer) {
  ES_ASSERT_MSG(!parallelPhase(), "setDomainObserver during a parallel phase");
  ES_ASSERT_MSG(EventDomain::current() == nullptr,
                "setDomainObserver from inside an event");
  observer_ = observer;
  for (const auto& domain : domains_) domain->observer_ = observer;
}

SimTime Simulation::domainLookahead(DomainId from, DomainId to) const {
  const DomainChannel* channel = channelBetween(from, to);
  return channel != nullptr ? channel->lookahead() : SimTime::max();
}

DomainChannel* Simulation::channelBetween(DomainId from, DomainId to) const {
  const auto it = channelIndex_.find(std::pair{from, to});
  return it != channelIndex_.end() ? it->second : nullptr;
}

EventHandle Simulation::scheduleOn(DomainId target, SimTime delay,
                                   std::function<void()> fn) {
  ES_ASSERT_MSG(delay >= SimTime::zero(), "negative delay");
  EventDomain& active = activeDomain();
  if (target != active.id()) {
    // Cross-domain sends pay at least the channel lookahead: the modelled
    // management-plane latency, and (in parallel runs) the bound that keeps
    // the conservative advance rule sound.
    const SimTime lookahead = domainLookahead(active.id(), target);
    if (lookahead != SimTime::max() && delay < lookahead) delay = lookahead;
  }
  return scheduleOnAt(target, active.now() + delay, std::move(fn));
}

EventHandle Simulation::scheduleOnAt(DomainId target, SimTime when,
                                     std::function<void()> fn) {
  ES_ASSERT(target < domains_.size());
  EventDomain& active = activeDomain();
  EventDomain& dst = *domains_[target];
  if (&dst == &active) return dst.scheduleAt(when, std::move(fn));
  if (DomainObserver* observer = observer_) {
    // Causality stamp: the observer pairs this send with the receive.  A
    // zero flow id means "count only" -- the closure stays unwrapped and the
    // execution path is untouched.
    const std::uint64_t flow = observer->onCrossSend(active.id(), target, when);
    if (flow != 0) {
      fn = [observer, flow, from = active.id(), target, when,
            inner = std::move(fn)]() {
        observer->onCrossReceive(flow, from, target, when);
        inner();
      };
    }
  }
  if (!parallelPhase()) {
    // Sequential: direct admission into the target queue keeps the single
    // canonical global order the determinism suites compare against.
    dst.scheduleAt(when, std::move(fn));
    return EventHandle{};  // cross-domain sends are not cancellable
  }
  DomainChannel* channel = channelBetween(active.id(), target);
  ES_ASSERT_MSG(channel != nullptr,
                "cross-domain event without a connecting channel");
  ES_ASSERT_MSG(when >= active.now() + channel->lookahead(),
                "cross-domain event violates the lookahead bound");
  channel->push(when, std::move(fn));
  return EventHandle{};
}

Simulation::DomainScope::DomainScope(Simulation& sim, DomainId id)
    : sim_(sim), saved_(sim.setupDomain_) {
  ES_ASSERT(id < sim.domains_.size());
  ES_ASSERT_MSG(EventDomain::current() == nullptr,
                "DomainScope is setup-only; events already run in a domain");
  sim.setupDomain_ = id;
}

Simulation::DomainScope::~DomainScope() { sim_.setupDomain_ = saved_; }

void Simulation::drainAllChannels() {
  for (const auto& channel : channels_) channel->drainInto(channel->to());
}

bool Simulation::stepUntil(SimTime until) {
  drainAllChannels();
  EventDomain* next = nullptr;
  SimTime when = SimTime::max();
  for (const auto& domain : domains_) {
    const SimTime t = domain->nextEventTime();
    if (t < when) {
      when = t;
      next = domain.get();
    }
  }
  // nextEventTime pruned the cancelled front entries, so runFront runs a
  // live event.
  return next != nullptr && when <= until && next->runFront();
}

void Simulation::run() {
  stopped_ = false;
  while (!stopped_ && stepUntil(SimTime::max())) {
  }
}

void Simulation::runUntil(SimTime until) {
  stopped_ = false;
  while (!stopped_ && stepUntil(until)) {
  }
  for (const auto& domain : domains_) domain->finishAt(until);
}

bool Simulation::step() { return stepUntil(SimTime::max()); }

void Simulation::beginParallel() {
  ES_ASSERT_MSG(!parallel_.exchange(true, std::memory_order_acq_rel),
                "nested parallel phase");
}

void Simulation::endParallel() {
  parallel_.store(false, std::memory_order_release);
}

std::size_t Simulation::pendingEvents() const {
  std::size_t total = 0;
  for (const auto& domain : domains_) total += domain->pendingEvents();
  return total;
}

std::uint64_t Simulation::processedEvents() const {
  std::uint64_t total = 0;
  for (const auto& domain : domains_) total += domain->processedEvents();
  return total;
}

std::string Simulation::timePrefix() const {
  return strprintf("[t=%11.6fs] ", domains_.front()->now().toSeconds());
}

Simulation::LogScope::LogScope(Simulation& sim) {
  Logger::instance().setTimePrefix([&sim] { return sim.timePrefix(); });
}

Simulation::LogScope::~LogScope() { Logger::instance().clearTimePrefix(); }

PeriodicTimer::~PeriodicTimer() { cancel(); }

void PeriodicTimer::start(Simulation& sim, SimTime period,
                          std::function<bool()> tick, SimTime initialDelay) {
  ES_ASSERT(period > SimTime::zero());
  ES_ASSERT(tick != nullptr);
  cancel();
  period_ = period;
  tick_ = std::move(tick);
  running_ = true;
  alive_ = std::make_shared<bool>(true);
  arm(sim, initialDelay);
}

void PeriodicTimer::arm(Simulation& sim, SimTime delay) {
  handle_ = sim.schedule(delay, [this, &sim, alive = alive_] {
    if (!*alive || !running_) return;
    const bool again = tick_();
    // The tick may have cancelled or destroyed this timer: re-check the
    // liveness token before touching any member.
    if (!*alive) return;
    if (again) {
      arm(sim, period_);
    } else {
      running_ = false;
    }
  });
}

void PeriodicTimer::cancel() {
  if (alive_ != nullptr) *alive_ = false;
  handle_.cancel();
  running_ = false;
}

}  // namespace edgesim
