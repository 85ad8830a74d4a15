#include "src/workload/fio_append.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/logging.h"
#include "src/harness/host_model.h"

namespace ccnvme {

// Appends restart from offset 0 once a file reaches this size (keeps the
// simulated files within the inode's mapping capacity).
constexpr uint64_t kMaxFileBytes = 4ull << 20;

FioResult RunFioAppend(StorageStack& stack, const FioOptions& options) {
  FioResult result;
  const uint64_t start_ns = stack.sim().now();
  const uint64_t end_ns = start_ns + options.duration_ns;

  HostModelConfig hm_cfg;
  hm_cfg.num_cores =
      options.num_cores != 0
          ? options.num_cores
          : static_cast<uint16_t>(std::min<int>(options.num_threads,
                                                stack.config().num_queues));
  hm_cfg.total_contexts = static_cast<uint32_t>(options.num_threads);
  HostModel host(&stack, hm_cfg);

  const uint32_t num_clients = options.num_clients != 0
                                   ? options.num_clients
                                   : static_cast<uint32_t>(options.num_threads);

  // Per-client state lives across scheduling quanta (one quantum = one
  // append+sync); the vector is sized up front so references stay stable.
  struct ClientState {
    InodeNum ino = kInvalidInode;
    uint64_t offset = 0;
    Buffer data;
  };
  auto states = std::make_shared<std::vector<ClientState>>(num_clients);
  for (uint32_t i = 0; i < num_clients; ++i) {
    (*states)[i].data = Buffer(options.write_size, static_cast<uint8_t>(i + 1));
  }

  for (uint32_t i = 0; i < num_clients; ++i) {
    host.AddClient(
        "fio" + std::to_string(i),
        [&stack, &result, &options, states, i, end_ns] {
          ClientState& st = (*states)[i];
          if (st.ino == kInvalidInode) {
            auto ino = stack.fs().Create("/fio_" + std::to_string(i));
            CCNVME_CHECK(ino.ok()) << ino.status().ToString();
            st.ino = *ino;
          }
          if (stack.sim().now() >= end_ns) {
            return false;
          }
          const uint64_t op_start = stack.sim().now();
          Status s = stack.fs().Write(st.ino, st.offset, st.data);
          CCNVME_CHECK(s.ok()) << s.ToString();
          switch (options.sync_mode) {
            case SyncMode::kFsync:
              s = stack.fs().Fsync(st.ino);
              break;
            case SyncMode::kFatomic:
              s = stack.fs().Fatomic(st.ino);
              break;
            case SyncMode::kFdataatomic:
              s = stack.fs().Fdataatomic(st.ino);
              break;
          }
          CCNVME_CHECK(s.ok()) << s.ToString();
          result.latency_ns.Add(stack.sim().now() - op_start);
          result.ops++;
          st.offset += options.write_size;
          if (st.offset + options.write_size > kMaxFileBytes) {
            st.offset = 0;
          }
          return true;
        });
  }
  host.Run();
  result.elapsed_ns = stack.sim().now() - start_ns;
  return result;
}

}  // namespace ccnvme
