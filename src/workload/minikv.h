// MiniKV: a RocksDB-flavoured LSM key-value store used to reproduce the
// db_bench `fillsync` experiment (§7.4, Figure 12(b)).
//
// Architecture (the parts that matter for fillsync):
//   * every Put appends a WAL record and syncs it (WriteOptions.sync=true);
//   * concurrent writers use leader-based group commit: one leader batches
//     all queued records into a single WAL append + one sync, exactly like
//     RocksDB's write group;
//   * an in-memory memtable absorbs the writes; when it exceeds its budget
//     it is flushed to an immutable SST file and the WAL is rotated.
// CPU costs for key hashing/memtable insertion are modeled so the workload
// is CPU- and I/O-intensive like the real system.
#ifndef SRC_WORKLOAD_MINIKV_H_
#define SRC_WORKLOAD_MINIKV_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/harness/stack.h"

namespace ccnvme {

// Where MiniKV's durability comes from.
//   kFs:    the LSM engine above — WAL append + sync (group commit),
//           memtable, SST flushes — over a mounted file system.
//   kKvSsd: the device-native path — every operation is ONE NVMe KV
//           command against the KV-SSD (config.kv.enabled stacks); the
//           device's shadow-commit protocol replaces WAL, memtable and
//           SSTs entirely, so completion IS durability.
enum class MiniKvBackend { kFs, kKvSsd };

struct MiniKvOptions {
  MiniKvBackend backend = MiniKvBackend::kFs;
  uint32_t value_size = 1024;      // db_bench: 1024-byte values
  uint32_t key_size = 16;          // db_bench: 16-byte keys
  uint64_t memtable_bytes = 1 << 20;
  // Sync mode for the WAL: kFsync matches RocksDB fillsync; kFdataatomic is
  // the MQFS-A variant enabled by ccNVMe.
  SyncMode wal_sync = SyncMode::kFsync;
};

class MiniKv {
 public:
  MiniKv(StorageStack* stack, const MiniKvOptions& options)
      : stack_(stack), options_(options), mu_(&stack->sim()), leader_cv_(&stack->sim()) {}

  // Creates the WAL and directories (kFs) or checks the KV path (kKvSsd).
  // Call from an actor.
  Status Open();
  // Durable write: WAL append + sync via group commit (kFs), or one NVMe
  // KV Store on the calling actor's queue (kKvSsd).
  Status Put(const std::string& key, const std::string& value);
  // Reads from the memtable or the SSTs (kFs) / one KV Retrieve (kKvSsd).
  Result<std::string> Get(const std::string& key);
  // Durable delete: a tombstone WAL record + memtable tombstone (kFs,
  // vlen = 0xFFFFFFFF in the on-disk records) or one KV Delete (kKvSsd).
  Status Delete(const std::string& key);
  Result<bool> Exist(const std::string& key);
  // All live keys, sorted (kFs: memtable + SSTs merged, tombstones win).
  Result<std::vector<std::string>> ListKeys();

  uint64_t puts() const { return puts_; }
  uint64_t wal_syncs() const { return wal_syncs_; }
  uint64_t flushes() const { return flushes_; }

 private:
  struct Writer {
    explicit Writer(Simulator* sim) : done(sim) {}
    std::string record;
    SimCompletion done;
    Status result;
  };

  // Shared fs-backend write path for Put and Delete (tombstone = nullopt).
  Status WriteFsRecord(const std::string& key, const std::string* value);
  Status AppendWalBatch(const Buffer& batch);
  Status MaybeFlushMemtable();
  // Tombstones encode vlen = kTombstoneLen and carry no value bytes.
  static constexpr uint32_t kTombstoneLen = 0xFFFFFFFFu;
  static std::string EncodeRecord(const std::string& key, const std::string* value);

  StorageStack* stack_;
  MiniKvOptions options_;
  SimMutex mu_;
  SimCondVar leader_cv_;
  bool leader_active_ = false;
  std::vector<std::shared_ptr<Writer>> queue_;

  InodeNum wal_ino_ = kInvalidInode;
  uint64_t wal_offset_ = 0;
  int wal_epoch_ = 0;
  // nullopt = tombstone (the key is deleted; shadows older SST entries).
  std::map<std::string, std::optional<std::string>> memtable_;
  uint64_t memtable_bytes_ = 0;
  int next_sst_ = 0;
  // Newest SST first: lookup order mirrors LSM level-0.
  std::vector<std::string> ssts_;

  uint64_t puts_ = 0;
  uint64_t wal_syncs_ = 0;
  uint64_t flushes_ = 0;
};

struct FillsyncOptions {
  int num_threads = 24;           // db_bench: 24 threads
  uint64_t duration_ns = 30'000'000;
  MiniKvOptions kv;
  uint64_t seed = 7;
  // 0 = unbounded random keys (the db_bench default). Non-zero bounds the
  // key population so capacity-limited backends (the KV-SSD's directory and
  // LPN space) see overwrite churn instead of unbounded growth — that churn
  // is what makes GC and write amplification observable.
  uint64_t key_space = 0;
};

struct FillsyncResult {
  uint64_t ops = 0;
  uint64_t elapsed_ns = 0;
  double Kiops() const {
    return elapsed_ns == 0
               ? 0.0
               : static_cast<double>(ops) * 1e9 / static_cast<double>(elapsed_ns) / 1e3;
  }
};

FillsyncResult RunFillsync(StorageStack& stack, const FillsyncOptions& options);

}  // namespace ccnvme

#endif  // SRC_WORKLOAD_MINIKV_H_
