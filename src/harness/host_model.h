// N-core host model: per-core run queues over the storage stack.
//
// The paper's headline claim is multi-queue scalability, which only shows
// up when the *host* side is modeled as N cores each multiplexing many
// concurrent clients — not as one actor per client. HostModel provides
// exactly that:
//
//   * N cores, each with a FIFO run queue of clients and a small number of
//     hardware contexts (worker actors). A context picks the next runnable
//     client, runs ONE operation (which may block in virtual time on I/O),
//     then requeues the client — the way a kernel run queue timeslices
//     blocked-on-IO threads onto a core.
//   * Every context of core c binds hardware queue (c % num_queues), so all
//     of a core's ccNVMe transactions flow through that core's NVMe SQ/CQ
//     pair and P-SQ stream (§4.5's no-migration rule by construction).
//   * Thousands of clients per device multiplex deterministically: the run
//     queues are FIFO, the simulator runs exactly one actor at a time, and
//     no scheduling step consumes virtual time unless a context-switch cost
//     is configured — so a run is a pure function of (seed, core count).
//
// With one client per context the model degenerates to the pre-host-model
// harness (one actor per workload thread) with an identical virtual-time
// schedule; tests/multicore_test.cc pins both properties down.
#ifndef SRC_HARNESS_HOST_MODEL_H_
#define SRC_HARNESS_HOST_MODEL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/stack.h"
#include "src/sim/sync.h"

namespace ccnvme {

struct HostModelConfig {
  uint16_t num_cores = 1;
  // Hardware contexts (worker actors) per core: how many of the core's
  // clients may be blocked in the kernel/device concurrently. 1 models a
  // strictly serial core (synchronous I/O).
  uint16_t contexts_per_core = 1;
  // Exact total context count, distributed round-robin across cores
  // (0 = num_cores * contexts_per_core). Lets the legacy "N threads on M
  // queues" workloads map exactly onto the core model.
  uint32_t total_contexts = 0;
};

class HostModel {
 public:
  // One scheduling quantum of a client: run one operation (it may block in
  // virtual time). Return true to be requeued, false when the client is done.
  using ClientOp = std::function<bool()>;

  static constexpr uint16_t kAnyCore = 0xffff;

  HostModel(StorageStack* stack, const HostModelConfig& config);

  // Registers a client on |core| (kAnyCore = round-robin by registration
  // order). Must be called before Start()/Run().
  void AddClient(std::string name, ClientOp op, uint16_t core = kAnyCore);

  // Spawns every core's context actors. Use when the caller drives
  // sim().Run() itself (e.g. alongside other actors).
  void Start();
  // Start() + sim().Run(): returns when every client has retired.
  void Run();

  uint16_t num_cores() const { return static_cast<uint16_t>(cores_.size()); }
  uint32_t num_clients() const { return static_cast<uint32_t>(clients_.size()); }
  // Scheduling quanta executed on |core| (one per client operation).
  uint64_t quanta(uint16_t core) const { return cores_[core]->quanta; }
  // Times a context on |core| picked a different client than it ran last.
  uint64_t client_switches(uint16_t core) const { return cores_[core]->switches; }

  HostModel(const HostModel&) = delete;
  HostModel& operator=(const HostModel&) = delete;

 private:
  struct Client {
    std::string name;
    ClientOp op;
    uint16_t core = 0;
  };
  struct Core {
    explicit Core(Simulator* sim) : mu(sim), work(sim) {}
    std::deque<size_t> runq;  // indices into clients_, FIFO
    SimMutex mu;
    SimCondVar work;
    uint32_t live = 0;  // clients bound here that have not retired
    uint64_t quanta = 0;
    uint64_t switches = 0;
  };

  void ContextLoop(uint16_t core, uint32_t context);

  StorageStack* stack_;
  HostModelConfig config_;
  std::vector<Client> clients_;
  std::vector<std::unique_ptr<Core>> cores_;
  // Last client index each context ran, keyed by (core, context), for the
  // context-switch charge. Sized at Start().
  std::vector<std::vector<size_t>> last_client_;
  bool started_ = false;
};

}  // namespace ccnvme

#endif  // SRC_HARNESS_HOST_MODEL_H_
