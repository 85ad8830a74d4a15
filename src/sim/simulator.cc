#include "src/sim/simulator.h"

#include <malloc.h>
#include <sched.h>

#include "src/common/logging.h"

namespace ccnvme {

namespace {
thread_local Simulator* tls_simulator = nullptr;
thread_local Actor* tls_actor = nullptr;

// glibc gives each new thread its own malloc arena, up to eight per CPU,
// and every actor is a thread. Actors run one at a time, so the extra
// arenas only strand each other's free memory. A cap of one arena per CPU
// the process may run on still leaves one per worker to a pool sized to
// those CPUs, like the crash explorer's. glibc fixes the limit the first
// time a thread needs a new arena, so the first Simulator sets it before
// it spawns any actor.
bool CapMallocArenas() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  return sched_getaffinity(0, sizeof(allowed), &allowed) == 0 &&
         mallopt(M_ARENA_MAX, CPU_COUNT(&allowed)) == 1;
}
}  // namespace

Actor::Actor(Simulator* sim, std::string name, std::function<void()> body)
    : sim_(sim), name_(std::move(name)), body_(std::move(body)) {}

Simulator::Simulator() {
  [[maybe_unused]] static const bool arenas_capped = CapMallocArenas();
}

Simulator::~Simulator() { Shutdown(); }

void Simulator::Schedule(uint64_t delay_ns, std::function<void()> fn) {
  ScheduleAt(now_ns_ + delay_ns, std::move(fn));
}

void Simulator::ScheduleAt(uint64_t time_ns, std::function<void()> fn) {
  CCNVME_CHECK_GE(time_ns, now_ns_) << "scheduling into the past";
  events_.push(Event{time_ns, next_seq_++, std::move(fn)});
}

Actor* Simulator::Spawn(std::string name, std::function<void()> body) {
  auto actor = std::unique_ptr<Actor>(new Actor(this, std::move(name), std::move(body)));
  Actor* raw = actor.get();
  raw->thread_ = std::thread([this, raw] { ActorTrampoline(raw); });
  actors_.push_back(std::move(actor));
  raw->state_ = Actor::RunState::kRunnable;
  Schedule(0, [this, raw] { RunActor(raw); });
  return raw;
}

void Simulator::ActorTrampoline(Actor* actor) {
  tls_simulator = this;
  tls_actor = actor;
  // Wait for the first handoff from the event loop.
  {
    std::unique_lock<std::mutex> lock(actor->mu_);
    actor->cv_.wait(lock, [actor] { return actor->go_; });
    actor->go_ = false;
  }
  if (!shutdown_) {
    try {
      actor->body_();
    } catch (const SimShutdown&) {
      // Normal teardown path.
    }
  }
  actor->state_ = Actor::RunState::kDone;
  // Give control back to the event loop one final time.
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    loop_go_ = true;
  }
  loop_cv_.notify_one();
}

void Simulator::RunActor(Actor* actor) {
  if (actor->state_ == Actor::RunState::kDone) {
    return;
  }
  CCNVME_CHECK(actor->state_ == Actor::RunState::kRunnable)
      << "actor " << actor->name_ << " resumed while not runnable";
  actor->state_ = Actor::RunState::kRunning;
  {
    std::lock_guard<std::mutex> lock(actor->mu_);
    actor->go_ = true;
  }
  actor->cv_.notify_one();
  // Wait until the actor yields back or finishes.
  {
    std::unique_lock<std::mutex> lock(loop_mu_);
    loop_cv_.wait(lock, [this] { return loop_go_; });
    loop_go_ = false;
  }
}

void Simulator::YieldToSim() {
  Actor* actor = tls_actor;
  CCNVME_CHECK(actor != nullptr) << "YieldToSim outside an actor";
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    loop_go_ = true;
  }
  loop_cv_.notify_one();
  {
    std::unique_lock<std::mutex> lock(actor->mu_);
    actor->cv_.wait(lock, [actor] { return actor->go_; });
    actor->go_ = false;
  }
  if (shutdown_) {
    throw SimShutdown{};
  }
}

Simulator* Simulator::Current() { return tls_simulator; }

Actor* Simulator::CurrentActor() { return tls_actor; }

void Simulator::Sleep(uint64_t ns) {
  Simulator* sim = tls_simulator;
  Actor* actor = tls_actor;
  CCNVME_CHECK(sim != nullptr && actor != nullptr) << "Sleep outside an actor";
  actor->state_ = Actor::RunState::kRunnable;
  sim->Schedule(ns, [sim, actor] { sim->RunActor(actor); });
  sim->YieldToSim();
}

void Simulator::SuspendCurrent() {
  Actor* actor = tls_actor;
  CCNVME_CHECK(actor != nullptr && actor->sim_ == this) << "SuspendCurrent outside an actor";
  actor->state_ = Actor::RunState::kBlocked;
  YieldToSim();
}

void Simulator::ResumeActor(Actor* actor) {
  if (shutdown_) {
    // Teardown wakes every actor directly; resumes issued while unwinding
    // (e.g. a lock released by a destructor) are no-ops.
    return;
  }
  CCNVME_CHECK(actor->state_ == Actor::RunState::kBlocked)
      << "resume of non-blocked actor " << actor->name_;
  actor->state_ = Actor::RunState::kRunnable;
  Schedule(0, [this, actor] { RunActor(actor); });
}

bool Simulator::ProcessNextEvent(uint64_t limit_ns) {
  if (events_.empty() || events_.top().time > limit_ns) {
    return false;
  }
  // Copy out: priority_queue::top() is const and fn must be movable-invoked.
  Event ev = events_.top();
  events_.pop();
  CCNVME_CHECK_GE(ev.time, now_ns_);
  now_ns_ = ev.time;
  events_processed_++;
  ev.fn();
  return true;
}

void Simulator::Run() {
  while (ProcessNextEvent(~0ull)) {
  }
}

void Simulator::RunFor(uint64_t duration_ns) { RunUntil(now_ns_ + duration_ns); }

void Simulator::RunUntil(uint64_t time_ns) {
  while (ProcessNextEvent(time_ns)) {
  }
  if (time_ns > now_ns_) {
    now_ns_ = time_ns;
  }
}

void Simulator::Shutdown() {
  if (shutdown_) {
    // Already shut down; just make sure all threads are joined.
    for (auto& actor : actors_) {
      if (actor->thread_.joinable()) {
        actor->thread_.join();
      }
    }
    return;
  }
  shutdown_ = true;
  for (auto& actor : actors_) {
    if (actor->state_ == Actor::RunState::kDone) {
      continue;
    }
    // Wake the actor directly; it observes shutdown_ and unwinds.
    actor->state_ = Actor::RunState::kRunnable;
    RunActor(actor.get());
  }
  for (auto& actor : actors_) {
    if (actor->thread_.joinable()) {
      actor->thread_.join();
    }
  }
}

}  // namespace ccnvme
