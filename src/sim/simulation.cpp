#include "sim/simulation.hpp"

#include "util/log.hpp"
#include "util/strings.hpp"

namespace edgesim {

bool Simulation::stepUntil(SimTime until) {
  // nextEventTime pruned the cancelled front entries, so runFront runs a
  // live event.
  const SimTime when = queue_.nextEventTime();
  return when != SimTime::max() && when <= until && queue_.runFront();
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
  queue_.finishAt(until);
}

bool Simulation::step() { return stepUntil(SimTime::max()); }

std::string Simulation::timePrefix() const {
  return strprintf("[t=%11.6fs] ", now().toSeconds());
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
