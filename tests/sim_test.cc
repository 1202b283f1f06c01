// Tests for the discrete-event simulator and timers.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/timer.h"

namespace sns {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Seconds(3), [&] { order.push_back(3); });
  sim.Schedule(Seconds(1), [&] { order.push_back(1); });
  sim.Schedule(Seconds(2), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Seconds(3));
}

TEST(SimulatorTest, TiesBreakFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Seconds(1), [&] {
    ++fired;
    sim.Schedule(Seconds(1), [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), Seconds(2));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.Schedule(Seconds(1), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // Double cancel is a no-op.
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelInvalidIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(kInvalidEventId));
  EXPECT_FALSE(sim.Cancel(999999));
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Seconds(1), [&] { ++fired; });
  sim.Schedule(Seconds(5), [&] { ++fired; });
  sim.RunUntil(Seconds(3));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Seconds(3));
  sim.RunFor(Seconds(3));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), Seconds(6));
}

TEST(SimulatorTest, EventAtExactBoundaryRuns) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(Seconds(3), [&] { fired = true; });
  sim.RunUntil(Seconds(3));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Seconds(1), [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(Seconds(2), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Run();  // Resumes.
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(Seconds(1), [] {});
  sim.Run();
  SimTime before = sim.now();
  bool fired = false;
  sim.Schedule(-Seconds(5), [&] { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), before);
}

TEST(SimulatorTest, PendingAndExecutedCounts) {
  Simulator sim;
  sim.Schedule(1, [] {});
  sim.Schedule(2, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.Schedule(Seconds(1), [&] { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
  // Regression: the heap-era core returned true here and permanently polluted
  // its cancelled-set, which in turn made pending_events() wrap below zero.
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, PendingCountNeverUnderflows) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sim.Schedule(Seconds(i + 1), [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 8u);
  EXPECT_TRUE(sim.Cancel(ids[0]));
  EXPECT_EQ(sim.pending_events(), 7u);
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 7u);
  // Cancelling every id again (all fired or cancelled) must not move the count.
  for (EventId id : ids) {
    EXPECT_FALSE(sim.Cancel(id));
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_LT(sim.pending_events(), 1000000u);  // The seed bug wrapped to ~SIZE_MAX.
}

TEST(SimulatorTest, CancelInsideOwnCallbackIsNoOp) {
  Simulator sim;
  EventId id = kInvalidEventId;
  int cancels = 0;
  id = sim.Schedule(Seconds(1), [&] {
    if (sim.Cancel(id)) ++cancels;
  });
  sim.Run();
  EXPECT_EQ(cancels, 0);  // An id is dead the moment its callback starts.
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, StopDuringRunUntilFreezesTime) {
  Simulator sim;
  sim.Schedule(Seconds(1), [&] { sim.Stop(); });
  sim.Schedule(Seconds(2), [] {});
  sim.RunUntil(Seconds(10));
  // Regression: the old core fast-forwarded now_ to 10s even though Stop()
  // halted the run at the 1s event.
  EXPECT_EQ(sim.now(), Seconds(1));
  sim.RunUntil(Seconds(10));  // Resumes and completes: clock advances fully.
  EXPECT_EQ(sim.now(), Seconds(10));
}

TEST(SimulatorTest, FarFutureEventsOrderAcrossOverflow) {
  // Mixes wheel-resident timers with ones past the ~68.7 s wheel horizon so
  // ordering must survive the overflow-level migrate-in path.
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Seconds(200), [&] { order.push_back(200); });
  sim.Schedule(Seconds(1), [&] { order.push_back(1); });
  sim.Schedule(Seconds(100), [&] { order.push_back(100); });
  sim.Schedule(Seconds(70), [&] { order.push_back(70); });
  sim.Schedule(Seconds(100), [&] { order.push_back(101); });  // FIFO at equal time.
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 70, 100, 101, 200}));
  EXPECT_EQ(sim.now(), Seconds(200));
}

TEST(SimulatorTest, CancelFarFutureEvent) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.Schedule(Seconds(500), [&] { fired = true; });
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), 0);  // Nothing ran; the clock never moved.
}

TEST(SimulatorTest, ScheduleAfterPeekKeepsOrdering) {
  // RunUntil peeks (structurally advancing the wheel cursor) past a boundary
  // with nothing due; events scheduled afterwards must still order correctly.
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Seconds(5), [&] { order.push_back(5); });
  sim.RunUntil(Seconds(2));  // No event fires; internal cursor may move.
  EXPECT_EQ(sim.now(), Seconds(2));
  sim.Schedule(Seconds(1), [&] { order.push_back(3); });   // t=3s absolute.
  sim.Schedule(Milliseconds(1.0), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 5}));
}

TEST(SimulatorTest, FifoAcrossWheelWindows) {
  // Equal-time events scheduled from different callbacks (different wheel
  // placements) must still pop in schedule order.
  Simulator sim;
  std::vector<int> order;
  constexpr SimTime kTarget = 3 * kMillisecond;
  sim.Schedule(kTarget, [&] { order.push_back(0); });
  sim.Schedule(kMicrosecond, [&] {
    sim.ScheduleAt(kTarget, [&] { order.push_back(1); });
  });
  sim.Schedule(2 * kMillisecond, [&] {
    sim.ScheduleAt(kTarget, [&] { order.push_back(2); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimulatorTest, MoveOnlyAndLargeCaptures) {
  Simulator sim;
  // Move-only capture (impossible with the std::function-based core).
  auto token = std::make_unique<int>(7);
  int seen = 0;
  sim.Schedule(Seconds(1), [t = std::move(token), &seen] { seen = *t; });
  // Oversized capture takes SimCallback's heap fallback.
  struct Big {
    char bytes[512] = {};
  };
  Big big;
  big.bytes[0] = 42;
  char got = 0;
  sim.Schedule(Seconds(2), [big, &got] { got = big.bytes[0]; });
  sim.Run();
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(got, 42);
}

TEST(PeriodicTimerTest, FiresRepeatedlyUntilStopped) {
  Simulator sim;
  int fired = 0;
  PeriodicTimer timer(&sim, Seconds(1), [&] { ++fired; });
  timer.Start();
  sim.RunUntil(Seconds(5) + Milliseconds(1.0));
  EXPECT_EQ(fired, 5);
  timer.Stop();
  sim.RunFor(Seconds(5));
  EXPECT_EQ(fired, 5);
}

TEST(PeriodicTimerTest, InitialDelayOverride) {
  Simulator sim;
  int fired = 0;
  PeriodicTimer timer(&sim, Seconds(10), [&] { ++fired; });
  timer.StartWithDelay(Milliseconds(1.0));
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(fired, 1);
}

TEST(PeriodicTimerTest, CallbackMayStopTimer) {
  Simulator sim;
  int fired = 0;
  PeriodicTimer timer(&sim, Seconds(1), [&] {
    if (++fired == 3) {
      timer.Stop();
    }
  });
  timer.Start();
  sim.RunFor(Seconds(10));
  EXPECT_EQ(fired, 3);
}

TEST(PeriodicTimerTest, DestructionCancels) {
  Simulator sim;
  int fired = 0;
  {
    PeriodicTimer timer(&sim, Seconds(1), [&] { ++fired; });
    timer.Start();
  }
  sim.RunFor(Seconds(5));
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace sns
