#include <vector>

#include <gtest/gtest.h>

#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"

namespace ccnvme {
namespace {

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(300, [&] { order.push_back(3); });
  sim.Schedule(100, [&] { order.push_back(1); });
  sim.Schedule(200, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300u);
}

TEST(SimulatorTest, TiesBreakInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(100, [&] { order.push_back(1); });
  sim.Schedule(100, [&] { order.push_back(2); });
  sim.Schedule(100, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ActorSleepAdvancesVirtualTime) {
  Simulator sim;
  uint64_t woke_at = 0;
  sim.Spawn("sleeper", [&] {
    Simulator::Sleep(12345);
    woke_at = Simulator::Current()->now();
  });
  sim.Run();
  EXPECT_EQ(woke_at, 12345u);
}

TEST(SimulatorTest, ActorsInterleaveDeterministically) {
  Simulator sim;
  std::vector<std::pair<char, uint64_t>> trace;
  sim.Spawn("a", [&] {
    for (int i = 0; i < 3; ++i) {
      Simulator::Sleep(10);
      trace.emplace_back('a', sim.now());
    }
  });
  sim.Spawn("b", [&] {
    for (int i = 0; i < 2; ++i) {
      Simulator::Sleep(15);
      trace.emplace_back('b', sim.now());
    }
  });
  sim.Run();
  // At t=30 both wake; b scheduled its wake event first (at t=15 vs t=20),
  // so the FIFO tie-break runs b first.
  const std::vector<std::pair<char, uint64_t>> want = {
      {'a', 10}, {'b', 15}, {'a', 20}, {'b', 30}, {'a', 30}};
  EXPECT_EQ(trace, want);
}

TEST(SimulatorTest, RunForStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(100, [&] { fired++; });
  sim.Schedule(200, [&] { fired++; });
  sim.RunFor(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 150u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, ShutdownUnblocksSleepingActors) {
  Simulator sim;
  bool reached_end = false;
  sim.Spawn("stuck", [&] {
    Simulator::Sleep(1000000000ull);
    reached_end = true;
  });
  sim.RunFor(10);
  sim.Shutdown();
  EXPECT_FALSE(reached_end);
}

TEST(SimulatorTest, ShutdownUnblocksBlockedActors) {
  Simulator sim;
  SimCompletion done(&sim);
  sim.Spawn("waiter", [&] { done.Wait(); });
  sim.RunFor(10);
  sim.Shutdown();  // must not hang
}

TEST(SimMutexTest, ProvidesMutualExclusion) {
  Simulator sim;
  SimMutex mu(&sim);
  int in_critical = 0;
  int max_in_critical = 0;
  for (int i = 0; i < 4; ++i) {
    sim.Spawn("t" + std::to_string(i), [&] {
      for (int j = 0; j < 5; ++j) {
        SimLockGuard guard(mu);
        in_critical++;
        max_in_critical = std::max(max_in_critical, in_critical);
        Simulator::Sleep(7);
        in_critical--;
      }
    });
  }
  sim.Run();
  EXPECT_EQ(max_in_critical, 1);
}

TEST(SimMutexTest, FifoHandoff) {
  Simulator sim;
  SimMutex mu(&sim);
  std::vector<int> order;
  sim.Spawn("holder", [&] {
    mu.Lock();
    Simulator::Sleep(100);
    mu.Unlock();
  });
  for (int i = 0; i < 3; ++i) {
    sim.Spawn("w" + std::to_string(i), [&, i] {
      Simulator::Sleep(static_cast<uint64_t>(i) + 1);  // deterministic arrival order
      mu.Lock();
      order.push_back(i);
      mu.Unlock();
    });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimMutexTest, TryLock) {
  Simulator sim;
  SimMutex mu(&sim);
  bool first = false;
  bool second = true;
  sim.Spawn("a", [&] {
    first = mu.TryLock();
    Simulator::Sleep(50);
    mu.Unlock();
  });
  sim.Spawn("b", [&] {
    Simulator::Sleep(10);
    second = mu.TryLock();
  });
  sim.Run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
}

TEST(SimCondVarTest, NotifyOneWakesOneWaiter) {
  Simulator sim;
  SimMutex mu(&sim);
  SimCondVar cv(&sim);
  int ready = 0;
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn("w" + std::to_string(i), [&] {
      mu.Lock();
      ready++;
      cv.Wait(mu);
      woken++;
      mu.Unlock();
    });
  }
  sim.Spawn("notifier", [&] {
    Simulator::Sleep(100);
    mu.Lock();
    cv.NotifyOne();
    mu.Unlock();
  });
  sim.Run();
  EXPECT_EQ(ready, 3);
  EXPECT_EQ(woken, 1);
  sim.Shutdown();
}

TEST(SimCondVarTest, NotifyAllWakesEveryone) {
  Simulator sim;
  SimMutex mu(&sim);
  SimCondVar cv(&sim);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn("w" + std::to_string(i), [&] {
      mu.Lock();
      cv.Wait(mu);
      woken++;
      mu.Unlock();
    });
  }
  sim.Spawn("notifier", [&] {
    Simulator::Sleep(100);
    mu.Lock();
    cv.NotifyAll();
    mu.Unlock();
  });
  sim.Run();
  EXPECT_EQ(woken, 3);
}

TEST(SimCondVarTest, WaitForTimesOut) {
  Simulator sim;
  SimMutex mu(&sim);
  SimCondVar cv(&sim);
  bool notified = true;
  uint64_t woke_at = 0;
  sim.Spawn("w", [&] {
    mu.Lock();
    notified = cv.WaitFor(mu, 500);
    woke_at = sim.now();
    mu.Unlock();
  });
  sim.Run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(woke_at, 500u);
}

TEST(SimCondVarTest, WaitForNotifiedBeforeTimeout) {
  Simulator sim;
  SimMutex mu(&sim);
  SimCondVar cv(&sim);
  bool notified = false;
  sim.Spawn("w", [&] {
    mu.Lock();
    notified = cv.WaitFor(mu, 500);
    mu.Unlock();
  });
  sim.Spawn("n", [&] {
    Simulator::Sleep(100);
    mu.Lock();
    cv.NotifyOne();
    mu.Unlock();
  });
  sim.Run();
  EXPECT_TRUE(notified);
}

TEST(SimSemaphoreTest, BlocksWhenExhausted) {
  Simulator sim;
  SimSemaphore sem(&sim, 2);
  int concurrent = 0;
  int max_concurrent = 0;
  for (int i = 0; i < 5; ++i) {
    sim.Spawn("t" + std::to_string(i), [&] {
      sem.Acquire();
      concurrent++;
      max_concurrent = std::max(max_concurrent, concurrent);
      Simulator::Sleep(10);
      concurrent--;
      sem.Release();
    });
  }
  sim.Run();
  EXPECT_EQ(max_concurrent, 2);
}

TEST(SimCompletionTest, SignalBeforeWaitDoesNotBlock) {
  Simulator sim;
  SimCompletion done(&sim);
  bool finished = false;
  sim.Spawn("w", [&] {
    Simulator::Sleep(100);
    done.Wait();
    finished = true;
  });
  sim.Spawn("s", [&] { done.Signal(); });
  sim.Run();
  EXPECT_TRUE(finished);
}

TEST(SimQueueTest, PopBlocksUntilPush) {
  Simulator sim;
  SimQueue<int> q(&sim);
  int got = 0;
  uint64_t got_at = 0;
  sim.Spawn("consumer", [&] {
    got = q.Pop();
    got_at = sim.now();
  });
  sim.Spawn("producer", [&] {
    Simulator::Sleep(250);
    q.Push(42);
  });
  sim.Run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(got_at, 250u);
}

TEST(SimQueueTest, FifoOrder) {
  Simulator sim;
  SimQueue<int> q(&sim);
  std::vector<int> got;
  sim.Spawn("producer", [&] {
    for (int i = 0; i < 5; ++i) {
      q.Push(i);
    }
  });
  sim.Spawn("consumer", [&] {
    for (int i = 0; i < 5; ++i) {
      got.push_back(q.Pop());
    }
  });
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(BandwidthPipeTest, TransfersSerialize) {
  Simulator sim;
  BandwidthPipe pipe(&sim, "link", 1000000000);  // 1 GB/s => 1 byte/ns
  uint64_t a_done = 0;
  uint64_t b_done = 0;
  sim.Spawn("a", [&] {
    pipe.Transfer(1000);
    a_done = sim.now();
  });
  sim.Spawn("b", [&] {
    pipe.Transfer(1000);
    b_done = sim.now();
  });
  sim.Run();
  EXPECT_EQ(a_done, 1000u);
  EXPECT_EQ(b_done, 2000u);
  EXPECT_DOUBLE_EQ(pipe.UtilizationSince(0), 1.0);
}

TEST(BandwidthPipeTest, ZeroRateIsInfinite) {
  Simulator sim;
  BandwidthPipe pipe(&sim, "link", 0);
  uint64_t done_at = 1;
  sim.Spawn("a", [&] {
    pipe.Transfer(1 << 30);
    done_at = sim.now();
  });
  sim.Run();
  EXPECT_EQ(done_at, 0u);
}

}  // namespace
}  // namespace ccnvme
