// FIO-style append+fsync workload (the paper's microbenchmark: "each
// performs 4 KB append writes to its private file followed by fsync").
// Used by Figure 2 (motivation), Figure 11 (file-system performance) and
// Figure 13 (ablation).
#ifndef SRC_WORKLOAD_FIO_APPEND_H_
#define SRC_WORKLOAD_FIO_APPEND_H_

#include <cstdint>

#include "src/common/stats.h"
#include "src/harness/stack.h"

namespace ccnvme {

struct FioOptions {
  // Hardware contexts of the host model (how many clients may be inside the
  // kernel/device concurrently). With the defaults below this is also the
  // client count, reproducing the historical "one actor per thread" runs
  // byte-identically.
  int num_threads = 1;
  uint32_t write_size = 4096;
  SyncMode sync_mode = SyncMode::kFsync;
  uint64_t duration_ns = 30'000'000;  // 30 ms of simulated time
  // --- host model (src/harness/host_model.h) ------------------------------
  // Simulated host cores; every context of core c submits on hardware queue
  // c % num_queues. 0 = min(num_threads, num_queues), the legacy mapping.
  uint16_t num_cores = 0;
  // Concurrent clients multiplexed over the contexts (each appends to its
  // own file). 0 = num_threads, i.e. no multiplexing.
  uint32_t num_clients = 0;
};

struct FioResult {
  uint64_t ops = 0;
  uint64_t elapsed_ns = 0;
  Histogram latency_ns;

  double Iops() const {
    return elapsed_ns == 0 ? 0.0 : static_cast<double>(ops) * 1e9 / static_cast<double>(elapsed_ns);
  }
  double ThroughputMBps(uint32_t write_size) const {
    return Iops() * write_size / 1e6;
  }
  double ThroughputKiops() const { return Iops() / 1e3; }
};

// Runs the workload on a mounted stack; returns aggregate results.
FioResult RunFioAppend(StorageStack& stack, const FioOptions& options);

}  // namespace ccnvme

#endif  // SRC_WORKLOAD_FIO_APPEND_H_
