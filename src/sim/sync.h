// Virtual-time synchronization primitives for actors.
//
// These mirror the kernel primitives the real ccNVMe/MQFS code uses
// (mutexes, wait queues, completion variables) but block in *virtual* time:
// a blocked actor consumes no simulated CPU and is woken through the event
// queue, which keeps runs deterministic.
//
// None of these classes are thread-safe in the OS sense — they rely on the
// simulator's exactly-one-runner invariant.
#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "src/sim/simulator.h"

namespace ccnvme {

// FIFO mutex. Ownership is handed directly to the longest-waiting actor on
// unlock (no barging), matching Linux qspinlock/mutex fairness closely
// enough for our modeling purposes.
class SimMutex {
 public:
  explicit SimMutex(Simulator* sim) : sim_(sim) {}

  void Lock();
  void Unlock();
  bool TryLock();
  bool held() const { return owner_ != nullptr; }
  Actor* owner() const { return owner_; }

 private:
  friend class SimCondVar;
  Simulator* sim_;
  Actor* owner_ = nullptr;
  std::deque<Actor*> waiters_;
};

// RAII guard for SimMutex.
class SimLockGuard {
 public:
  explicit SimLockGuard(SimMutex& mu) : mu_(mu) { mu_.Lock(); }
  ~SimLockGuard() { mu_.Unlock(); }
  SimLockGuard(const SimLockGuard&) = delete;
  SimLockGuard& operator=(const SimLockGuard&) = delete;

 private:
  SimMutex& mu_;
};

class SimCondVar {
 public:
  explicit SimCondVar(Simulator* sim) : sim_(sim) {}

  // Atomically releases |mu|, blocks, and reacquires |mu| before returning.
  void Wait(SimMutex& mu);
  // As Wait but gives up after |timeout_ns|. Returns true if notified,
  // false on timeout.
  bool WaitFor(SimMutex& mu, uint64_t timeout_ns);
  void NotifyOne();
  void NotifyAll();

 private:
  struct WaitNode {
    Actor* actor;
    bool notified = false;
    bool timed_out = false;
  };
  Simulator* sim_;
  std::deque<std::shared_ptr<WaitNode>> waiters_;
};

class SimSemaphore {
 public:
  SimSemaphore(Simulator* sim, uint64_t initial) : sim_(sim), count_(initial) {}

  void Acquire(uint64_t n = 1);
  // Non-blocking acquire; returns false if insufficient count (or waiters
  // are queued ahead).
  bool TryAcquire(uint64_t n = 1);
  void Release(uint64_t n = 1);
  uint64_t count() const { return count_; }

 private:
  struct WaitNode {
    Actor* actor;
    uint64_t amount;
  };
  Simulator* sim_;
  uint64_t count_;
  std::deque<WaitNode> waiters_;
};

// One-shot completion: Wait blocks until Signal has been called (in either
// order). Mirrors the kernel's `struct completion`, which the NVMe driver
// uses to wait for I/O.
class SimCompletion {
 public:
  explicit SimCompletion(Simulator* sim) : sim_(sim) {}

  void Wait();
  void Signal();
  bool signaled() const { return signaled_; }
  void Reset() { signaled_ = false; }

 private:
  Simulator* sim_;
  bool signaled_ = false;
  std::deque<Actor*> waiters_;
};

// Unbounded FIFO channel between actors; Pop blocks while empty.
template <typename T>
class SimQueue {
 public:
  explicit SimQueue(Simulator* sim) : sim_(sim), cv_(sim), mu_(sim) {}

  void Push(T item) {
    SimLockGuard guard(mu_);
    items_.push_back(std::move(item));
    cv_.NotifyOne();
  }

  T Pop() {
    SimLockGuard guard(mu_);
    while (items_.empty()) {
      cv_.Wait(mu_);
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

 private:
  Simulator* sim_;
  SimCondVar cv_;
  SimMutex mu_;
  std::deque<T> items_;
};

}  // namespace ccnvme

#endif  // SRC_SIM_SYNC_H_
