#include "src/workload/minikv.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace ccnvme {
namespace {

constexpr uint64_t kKvCpuNs = 900;  // user-space CPU per Put (memtable, encoding)

}  // namespace

Status MiniKv::Open() {
  if (options_.backend == MiniKvBackend::kKvSsd) {
    CCNVME_CHECK(stack_->kv_driver() != nullptr)
        << "MiniKvBackend::kKvSsd needs a config.kv.enabled stack";
    return OkStatus();
  }
  CCNVME_ASSIGN_OR_RETURN(wal_ino_, stack_->fs().Create("/kv_wal_0"));
  return OkStatus();
}

std::string MiniKv::EncodeRecord(const std::string& key, const std::string* value) {
  std::string rec;
  rec.reserve(8 + key.size() + (value != nullptr ? value->size() : 0));
  uint8_t hdr[8];
  PutU32(std::span<uint8_t>(hdr, 8), 0, static_cast<uint32_t>(key.size()));
  PutU32(std::span<uint8_t>(hdr, 8), 4,
         value != nullptr ? static_cast<uint32_t>(value->size()) : kTombstoneLen);
  rec.append(reinterpret_cast<const char*>(hdr), 8);
  rec.append(key);
  if (value != nullptr) {
    rec.append(*value);
  }
  return rec;
}

Status MiniKv::AppendWalBatch(const Buffer& batch) {
  CCNVME_RETURN_IF_ERROR(stack_->fs().Write(wal_ino_, wal_offset_, batch));
  wal_offset_ += batch.size();
  Status st;
  switch (options_.wal_sync) {
    case SyncMode::kFsync:
      st = stack_->fs().Fsync(wal_ino_);
      break;
    case SyncMode::kFatomic:
      st = stack_->fs().Fatomic(wal_ino_);
      break;
    case SyncMode::kFdataatomic:
      st = stack_->fs().Fdataatomic(wal_ino_);
      break;
  }
  wal_syncs_++;
  return st;
}

Status MiniKv::Put(const std::string& key, const std::string& value) {
  if (options_.backend == MiniKvBackend::kKvSsd) {
    // Device-native: one KV Store on the caller's queue. No WAL, no
    // memtable — the device's shadow commit is the durability point.
    Simulator::Sleep(kKvCpuNs);
    puts_++;
    return stack_->kv_driver()->Store(stack_->blk().current_queue(), key, value);
  }
  return WriteFsRecord(key, &value);
}

Status MiniKv::Delete(const std::string& key) {
  if (options_.backend == MiniKvBackend::kKvSsd) {
    Simulator::Sleep(kKvCpuNs);
    return stack_->kv_driver()->Delete(stack_->blk().current_queue(), key);
  }
  Result<bool> exists = Exist(key);
  if (!exists.ok()) {
    return exists.status();
  }
  if (!*exists) {
    return NotFound("key not found: " + key);
  }
  return WriteFsRecord(key, nullptr);
}

Result<bool> MiniKv::Exist(const std::string& key) {
  if (options_.backend == MiniKvBackend::kKvSsd) {
    Simulator::Sleep(kKvCpuNs / 2);
    return stack_->kv_driver()->Exist(stack_->blk().current_queue(), key);
  }
  Result<std::string> got = Get(key);
  if (got.ok()) {
    return true;
  }
  if (got.status().code() == ErrorCode::kNotFound) {
    return false;
  }
  return got.status();
}

Result<std::vector<std::string>> MiniKv::ListKeys() {
  if (options_.backend == MiniKvBackend::kKvSsd) {
    Simulator::Sleep(kKvCpuNs);
    Result<std::vector<std::string>> keys =
        stack_->kv_driver()->ListKeys(stack_->blk().current_queue());
    if (keys.ok()) {
      std::sort(keys->begin(), keys->end());
    }
    return keys;
  }
  // LSM merge, newest layer wins: memtable over SSTs (newest-first), with
  // tombstones suppressing every older occurrence of their key.
  SimLockGuard guard(mu_);
  std::map<std::string, bool> live;  // key -> is live (first sighting wins)
  for (const auto& [k, v] : memtable_) {
    live.emplace(k, v.has_value());
  }
  for (const std::string& path : ssts_) {
    auto ino = stack_->fs().Lookup(path);
    if (!ino.ok()) {
      continue;
    }
    auto size = stack_->fs().FileSize(*ino);
    if (!size.ok()) {
      continue;
    }
    Buffer content(*size);
    if (!stack_->fs().Read(*ino, 0, content).ok()) {
      continue;
    }
    size_t off = 0;
    while (off + 8 <= content.size()) {
      const uint32_t klen = GetU32(content, off);
      const uint32_t vlen = GetU32(content, off + 4);
      const uint64_t vbytes = vlen == kTombstoneLen ? 0 : vlen;
      if (off + 8 + klen + vbytes > content.size()) {
        break;
      }
      std::string k(reinterpret_cast<const char*>(content.data()) + off + 8, klen);
      live.emplace(std::move(k), vlen != kTombstoneLen);
      off += 8 + klen + vbytes;
    }
  }
  std::vector<std::string> keys;
  for (const auto& [k, is_live] : live) {
    if (is_live) {
      keys.push_back(k);
    }
  }
  return keys;
}

Status MiniKv::WriteFsRecord(const std::string& key, const std::string* value) {
  Simulator::Sleep(kKvCpuNs);  // encode + memtable CPU
  auto writer = std::make_shared<Writer>(&stack_->sim());
  writer->record = EncodeRecord(key, value);

  mu_.Lock();
  // Memtable insert happens while enqueuing (followers return without
  // re-acquiring the lock once their batch commits).
  if (value != nullptr) {
    memtable_[key] = *value;
    memtable_bytes_ += key.size() + value->size();
    puts_++;
  } else {
    memtable_[key] = std::nullopt;
    memtable_bytes_ += key.size();
  }
  queue_.push_back(writer);
  if (leader_active_) {
    // A leader is busy; wait for our batch to be committed.
    mu_.Unlock();
    writer->done.Wait();
    return writer->result;
  }
  // Become the leader: take everything queued (our own record plus any
  // writers that piled up) and commit it as one WAL append + sync.
  leader_active_ = true;
  Status st = OkStatus();
  while (true) {
    std::vector<std::shared_ptr<Writer>> batch;
    batch.swap(queue_);
    if (batch.empty()) {
      break;
    }
    Buffer bytes;
    for (const auto& w : batch) {
      bytes.insert(bytes.end(), w->record.begin(), w->record.end());
    }
    mu_.Unlock();
    Status batch_st = AppendWalBatch(bytes);
    mu_.Lock();
    for (const auto& w : batch) {
      w->result = batch_st;
      if (w != writer) {
        w->done.Signal();
      } else {
        st = batch_st;
      }
    }
  }
  leader_active_ = false;
  Status flush_st = MaybeFlushMemtable();
  mu_.Unlock();
  if (!flush_st.ok()) {
    return flush_st;
  }
  return st;
}

// Called with mu_ held. Swaps in a fresh memtable and rotates the WAL under
// the lock (cheap, in-memory), then releases the lock for the slow SST
// build so other writers keep going — RocksDB's immutable-memtable flush.
Status MiniKv::MaybeFlushMemtable() {
  if (memtable_bytes_ < options_.memtable_bytes) {
    return OkStatus();
  }
  flushes_++;
  std::map<std::string, std::optional<std::string>> imm;
  imm.swap(memtable_);
  memtable_bytes_ = 0;
  const std::string old_wal = "/kv_wal_" + std::to_string(wal_epoch_);
  wal_epoch_++;
  CCNVME_ASSIGN_OR_RETURN(wal_ino_, stack_->fs().Create("/kv_wal_" + std::to_string(wal_epoch_)));
  wal_offset_ = 0;

  mu_.Unlock();
  Status st = [&]() -> Status {
    // Serialize the immutable memtable into an SST file (already sorted).
    // Tombstones are flushed too: they must shadow older SSTs' entries.
    Buffer sst;
    for (const auto& [k, v] : imm) {
      const std::string rec = EncodeRecord(k, v.has_value() ? &*v : nullptr);
      sst.insert(sst.end(), rec.begin(), rec.end());
    }
    const std::string sst_path = "/kv_sst_" + std::to_string(next_sst_++);
    CCNVME_ASSIGN_OR_RETURN(InodeNum sst_ino, stack_->fs().Create(sst_path));
    CCNVME_RETURN_IF_ERROR(stack_->fs().Write(sst_ino, 0, sst));
    CCNVME_RETURN_IF_ERROR(stack_->fs().Fsync(sst_ino));
    ssts_.insert(ssts_.begin(), sst_path);
    // The old WAL is now covered by the SST.
    CCNVME_RETURN_IF_ERROR(stack_->fs().Unlink(old_wal));
    return stack_->fs().FsyncPath("/");
  }();
  mu_.Lock();
  return st;
}

Result<std::string> MiniKv::Get(const std::string& key) {
  Simulator::Sleep(kKvCpuNs / 2);
  if (options_.backend == MiniKvBackend::kKvSsd) {
    CCNVME_ASSIGN_OR_RETURN(
        Buffer value, stack_->kv_driver()->Retrieve(stack_->blk().current_queue(), key));
    return std::string(reinterpret_cast<const char*>(value.data()), value.size());
  }
  SimLockGuard guard(mu_);
  auto it = memtable_.find(key);
  if (it != memtable_.end()) {
    if (!it->second.has_value()) {
      return NotFound("key not found: " + key);  // memtable tombstone
    }
    return *it->second;
  }
  // Scan SSTs newest-first; a tombstone in a newer SST wins.
  for (const std::string& path : ssts_) {
    auto ino = stack_->fs().Lookup(path);
    if (!ino.ok()) {
      continue;
    }
    auto size = stack_->fs().FileSize(*ino);
    if (!size.ok()) {
      continue;
    }
    Buffer content(*size);
    if (!stack_->fs().Read(*ino, 0, content).ok()) {
      continue;
    }
    size_t off = 0;
    while (off + 8 <= content.size()) {
      const uint32_t klen = GetU32(content, off);
      const uint32_t vlen = GetU32(content, off + 4);
      const uint64_t vbytes = vlen == kTombstoneLen ? 0 : vlen;
      if (off + 8 + klen + vbytes > content.size()) {
        break;
      }
      const std::string k(reinterpret_cast<const char*>(content.data()) + off + 8, klen);
      if (k == key) {
        if (vlen == kTombstoneLen) {
          return NotFound("key not found: " + key);
        }
        return std::string(reinterpret_cast<const char*>(content.data()) + off + 8 + klen,
                           vlen);
      }
      off += 8 + klen + vbytes;
    }
  }
  return NotFound("key not found: " + key);
}

FillsyncResult RunFillsync(StorageStack& stack, const FillsyncOptions& options) {
  FillsyncResult result;
  MiniKv kv(&stack, options.kv);
  Status opened = IoError("not opened");
  stack.Run([&] { opened = kv.Open(); });
  CCNVME_CHECK(opened.ok());

  const uint64_t start_ns = stack.sim().now();
  const uint64_t end_ns = start_ns + options.duration_ns;
  int finished = 0;
  for (int t = 0; t < options.num_threads; ++t) {
    const uint16_t queue = static_cast<uint16_t>(t % stack.config().num_queues);
    stack.Spawn("fillsync" + std::to_string(t), [&, t] {
      Rng rng(options.seed + static_cast<uint64_t>(t) * 131);
      std::string value(options.kv.value_size, 'v');
      while (stack.sim().now() < end_ns) {
        char key[32];
        const uint64_t k =
            options.key_space != 0 ? rng.Uniform(options.key_space) : rng.Next();
        std::snprintf(key, sizeof(key), "%016llx",
                      static_cast<unsigned long long>(k));
        Status st = kv.Put(std::string(key, options.kv.key_size), value);
        CCNVME_CHECK(st.ok()) << st.ToString();
        result.ops++;
      }
      finished++;
    }, queue);
  }
  stack.sim().Run();
  CCNVME_CHECK_EQ(finished, options.num_threads);
  result.elapsed_ns = stack.sim().now() - start_ns;
  return result;
}

}  // namespace ccnvme
