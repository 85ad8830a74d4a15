// Additional simulation-engine coverage: scheduling variants, non-blocking
// pipe reservations and semaphore TryAcquire fairness.
#include <gtest/gtest.h>

#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"

namespace ccnvme {
namespace {

TEST(SimExtraTest, ScheduleAtAbsoluteTime) {
  Simulator sim;
  std::vector<uint64_t> fired_at;
  sim.ScheduleAt(500, [&] { fired_at.push_back(sim.now()); });
  sim.ScheduleAt(100, [&] { fired_at.push_back(sim.now()); });
  sim.Run();
  EXPECT_EQ(fired_at, (std::vector<uint64_t>{100, 500}));
}

TEST(SimExtraTest, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.RunUntil(12345);
  EXPECT_EQ(sim.now(), 12345u);
  // Going backwards is a no-op.
  sim.RunUntil(100);
  EXPECT_EQ(sim.now(), 12345u);
}

TEST(SimExtraTest, EventsProcessedCountsEverything) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(static_cast<uint64_t>(i), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(BandwidthPipeTest, ReserveFinishTimeDoesNotBlock) {
  Simulator sim;
  BandwidthPipe pipe(&sim, "p", 1'000'000'000);  // 1 byte/ns
  std::vector<uint64_t> finishes;
  sim.Spawn("a", [&] {
    finishes.push_back(pipe.ReserveFinishTime(1000));
    finishes.push_back(pipe.ReserveFinishTime(1000));
    // No time passed: reservations queue back-to-back.
    EXPECT_EQ(sim.now(), 0u);
  });
  sim.Run();
  ASSERT_EQ(finishes.size(), 2u);
  EXPECT_EQ(finishes[0], 1000u);
  EXPECT_EQ(finishes[1], 2000u);
}

TEST(SimSemaphoreTest, TryAcquireRespectsWaiters) {
  Simulator sim;
  SimSemaphore sem(&sim, 1);
  bool stole = true;
  sim.Spawn("holder", [&] {
    sem.Acquire();
    Simulator::Sleep(100);
    sem.Release();
  });
  sim.Spawn("waiter", [&] {
    Simulator::Sleep(10);
    sem.Acquire();  // queues behind the holder
    sem.Release();
  });
  sim.Spawn("thief", [&] {
    Simulator::Sleep(50);
    // Even if a release happened, TryAcquire must not jump the queue.
    stole = sem.TryAcquire();
  });
  sim.Run();
  EXPECT_FALSE(stole);
}

TEST(SimExtraTest, NestedScheduleFromEventContext) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(10, [&] {
    order.push_back(1);
    sim.Schedule(5, [&] { order.push_back(2); });
  });
  sim.Schedule(12, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.now(), 15u);
}

TEST(SimExtraTest, ActorSpawnedFromActorRuns) {
  Simulator sim;
  bool child_ran = false;
  sim.Spawn("parent", [&] {
    Simulator::Sleep(10);
    Simulator::Current()->Spawn("child", [&] {
      Simulator::Sleep(5);
      child_ran = true;
    });
    Simulator::Sleep(100);
  });
  sim.Run();
  EXPECT_TRUE(child_ran);
}

}  // namespace
}  // namespace ccnvme
