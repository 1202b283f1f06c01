// Periodic timer layered on the simulator.
//
// PeriodicTimer drives the beaconing behaviors central to the paper's soft-state
// design: the manager beacons its existence and load hints on a multicast channel,
// workers beacon load reports, the monitor expects periodic component reports.
// One-shot timeouts, the backstop of paper §2.2.4, are Process::After timers.

#ifndef SRC_SIM_TIMER_H_
#define SRC_SIM_TIMER_H_

#include <functional>

#include "src/sim/simulator.h"

namespace sns {

// Fires a callback every `period` until stopped or destroyed. Restartable.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator* sim, SimDuration period, std::function<void()> fn);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  // First firing happens `period` from now (or `initial_delay` if given).
  void Start();
  void StartWithDelay(SimDuration initial_delay);
  // Safe to call at any point, including from inside the callback: Cancel() on
  // an id that already fired is a guaranteed no-op (see Simulator::Cancel).
  void Stop();
  bool running() const { return pending_ != kInvalidEventId; }

  void set_period(SimDuration period) { period_ = period; }
  SimDuration period() const { return period_; }

 private:
  void Fire();

  Simulator* sim_;
  SimDuration period_;
  std::function<void()> fn_;
  EventId pending_ = kInvalidEventId;
};

}  // namespace sns

#endif  // SRC_SIM_TIMER_H_
