#include "src/sim/timer.h"

#include <utility>

namespace sns {

PeriodicTimer::PeriodicTimer(Simulator* sim, SimDuration period, std::function<void()> fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {}

PeriodicTimer::~PeriodicTimer() { Stop(); }

void PeriodicTimer::Start() { StartWithDelay(period_); }

void PeriodicTimer::StartWithDelay(SimDuration initial_delay) {
  Stop();
  pending_ = sim_->Schedule(initial_delay, [this] { Fire(); });
}

void PeriodicTimer::Stop() {
  if (pending_ != kInvalidEventId) {
    sim_->Cancel(pending_);
    pending_ = kInvalidEventId;
  }
}

void PeriodicTimer::Fire() {
  // Reschedule before invoking so the callback may Stop() or change the period.
  pending_ = sim_->Schedule(period_, [this] { Fire(); });
  fn_();
}

}  // namespace sns
