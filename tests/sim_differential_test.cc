// Differential test: the timer-wheel Simulator vs the binary-heap reference.
//
// The wheel rewrite (DESIGN.md §12) must be observationally identical to a
// straightforward heap-based event queue: same pop order (FIFO tie-break at
// equal times), same clock, same pending/executed counts, same Cancel results —
// under long randomized sequences of schedule / cancel / run operations, with
// delays chosen to land in every wheel level and the overflow heap. The
// reference (bench/reference_heap_sim.h) is the retired pre-wheel algorithm
// with corrected bookkeeping, so each side's behavior is independently derived.
//
// Runs under the asan-ubsan preset like every test in this directory, which is
// where the slab/free-list lifetime discipline actually gets exercised.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench/reference_heap_sim.h"
#include "src/sim/simulator.h"
#include "src/sim/timer.h"
#include "src/util/rng.h"

namespace sns {
namespace {

// One live event tracked on both sides. Tokens record pop order.
struct LivePair {
  EventId wheel_id;
  ReferenceHeapSim::RefEventId heap_id;
  uint64_t token;
};

class DifferentialHarness {
 public:
  void ScheduleBoth(SimDuration delay) {
    uint64_t token = next_token_++;
    LivePair pair;
    pair.token = token;
    pair.wheel_id = wheel_.Schedule(delay, [this, token] { wheel_order_.push_back(token); });
    pair.heap_id = heap_.Schedule(delay, [this, token] { heap_order_.push_back(token); });
    live_.push_back(pair);
  }

  // Cancels the live pair at `index` (mod size); both sides must agree on the
  // result. Returns false if there was nothing to cancel.
  bool CancelBoth(uint64_t index) {
    if (live_.empty()) return false;
    size_t i = static_cast<size_t>(index % live_.size());
    bool wheel_ok = wheel_.Cancel(live_[i].wheel_id);
    bool heap_ok = heap_.Cancel(live_[i].heap_id);
    EXPECT_EQ(wheel_ok, heap_ok) << "Cancel disagreement, token " << live_[i].token;
    live_.erase(live_.begin() + static_cast<ptrdiff_t>(i));
    return true;
  }

  void StepBoth() {
    bool wheel_ran = wheel_.Step();
    bool heap_ran = heap_.Step();
    EXPECT_EQ(wheel_ran, heap_ran);
    CheckState();
  }

  void RunUntilBoth(SimTime t) {
    wheel_.RunUntil(t);
    heap_.RunUntil(t);
    CheckState();
  }

  void RunBoth() {
    wheel_.Run();
    heap_.Run();
    CheckState();
  }

  void CheckState() {
    ASSERT_EQ(wheel_order_, heap_order_) << "pop-order divergence";
    EXPECT_EQ(wheel_.now(), heap_.now());
    EXPECT_EQ(wheel_.pending_events(), heap_.pending_events());
    EXPECT_EQ(wheel_.executed_events(), heap_.executed_events());
  }

  SimTime now() const { return heap_.now(); }
  Simulator& wheel() { return wheel_; }

 private:
  Simulator wheel_;
  ReferenceHeapSim heap_;
  uint64_t next_token_ = 1;
  std::vector<LivePair> live_;
  std::vector<uint64_t> wheel_order_;
  std::vector<uint64_t> heap_order_;
};

// Delay distribution covering every placement class: immediate (0), sub-tick,
// level 0/1/2 of the wheel, and past the ~68.7 s horizon (overflow heap), plus
// frequent exact collisions to stress the FIFO tie-break.
SimDuration PickDelay(Rng* rng) {
  switch (rng->Next() % 8) {
    case 0:
      return 0;  // Fires at now: tie with everything scheduled "now".
    case 1:
      return static_cast<SimDuration>(rng->Next() % 4096);  // Sub-tick.
    case 2:
    case 3:
      return static_cast<SimDuration>(rng->Next() % 1000) * kMicrosecond;  // L0/L1.
    case 4:
    case 5:
      return static_cast<SimDuration>(1 + rng->Next() % 250) * kMillisecond;  // L1/L2.
    case 6:
      return Seconds(1 + static_cast<double>(rng->Next() % 60));  // Deep L2.
    default:
      return Seconds(70 + static_cast<double>(rng->Next() % 300));  // Overflow.
  }
}

TEST(SimDifferentialTest, RandomizedChurnMatchesReference) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    DifferentialHarness h;
    for (int op = 0; op < 4000; ++op) {
      switch (rng.Next() % 10) {
        case 0:
        case 1:
        case 2:
        case 3:  // 40%: schedule.
          h.ScheduleBoth(PickDelay(&rng));
          break;
        case 4:
        case 5:  // 20%: cancel a tracked event (may already have fired).
          h.CancelBoth(rng.Next());
          break;
        case 6:
        case 7:  // 20%: single step.
          h.StepBoth();
          break;
        case 8:  // 10%: bounded run.
          h.RunUntilBoth(h.now() +
                         static_cast<SimDuration>(rng.Next() % 50) * kMillisecond);
          break;
        default:  // 10%: schedule a burst at one instant (pure FIFO stress).
          for (int i = 0; i < 5; ++i) {
            h.ScheduleBoth(Seconds(1));
          }
          break;
      }
    }
    h.RunBoth();  // Drain completely; final order/counts must match.
    h.CheckState();
  }
}

TEST(SimDifferentialTest, RearmHeavySequences) {
  // Rapid cancel-and-reschedule of the same logical timer, the rearm pattern
  // of a resettable timeout, across placement classes.
  Rng rng(99);
  DifferentialHarness h;
  for (int round = 0; round < 500; ++round) {
    h.ScheduleBoth(PickDelay(&rng));
    h.CancelBoth(rng.Next());   // Usually cancels the one just scheduled.
    h.ScheduleBoth(PickDelay(&rng));
    if (round % 3 == 0) h.StepBoth();
  }
  h.RunBoth();
}

TEST(SimDifferentialTest, PeriodicTimerSequencesMatchReference) {
  // PeriodicTimer drives the paper's beacon channels; its reschedule-then-fire
  // loop must produce identical firing counts and clocks on the wheel as a
  // hand-rolled periodic chain on the reference heap.
  Simulator wheel;
  ReferenceHeapSim heap;

  std::vector<SimTime> wheel_fires;
  PeriodicTimer beacon(&wheel, Milliseconds(250.0), [&] { wheel_fires.push_back(wheel.now()); });
  beacon.Start();

  std::vector<SimTime> heap_fires;
  std::function<void()> rearm = [&] {
    heap_fires.push_back(heap.now());
    heap.Schedule(Milliseconds(250.0), rearm);
  };
  heap.Schedule(Milliseconds(250.0), rearm);

  // Jagged advance pattern so firings land mid-window and at exact boundaries.
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    SimDuration step = static_cast<SimDuration>(1 + rng.Next() % 400) * kMillisecond;
    wheel.RunFor(step);
    heap.RunFor(step);
    ASSERT_EQ(wheel.now(), heap.now());
    ASSERT_EQ(wheel_fires, heap_fires);
  }
  beacon.Stop();
  EXPECT_FALSE(beacon.running());
}

}  // namespace
}  // namespace sns
