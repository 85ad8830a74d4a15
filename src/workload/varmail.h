// Filebench Varmail-like workload (§7.4, Figure 12(a)).
//
// The classic mail-server loop, per thread:
//   1. delete a random mail file
//   2. create a new mail file, append, fsync
//   3. open a random file, read it, append, fsync
//   4. open a random file, read it whole
// Metadata-heavy and fsync-intensive — exactly what stresses the journaling
// machinery. Throughput is reported in flow-operations per second, like
// filebench.
#ifndef SRC_WORKLOAD_VARMAIL_H_
#define SRC_WORKLOAD_VARMAIL_H_

#include <cstdint>

#include "src/common/stats.h"
#include "src/harness/stack.h"

namespace ccnvme {

struct VarmailOptions {
  int num_threads = 16;
  int num_files = 200;           // pre-created mail files
  uint64_t duration_ns = 30'000'000;
  uint64_t seed = 99;
};

struct VarmailResult {
  uint64_t flow_ops = 0;  // each of the 4 loop phases counts as one op
  uint64_t elapsed_ns = 0;
  double KopsPerSec() const {
    return elapsed_ns == 0
               ? 0.0
               : static_cast<double>(flow_ops) * 1e9 / static_cast<double>(elapsed_ns) / 1e3;
  }
};

VarmailResult RunVarmail(StorageStack& stack, const VarmailOptions& options);

}  // namespace ccnvme

#endif  // SRC_WORKLOAD_VARMAIL_H_
