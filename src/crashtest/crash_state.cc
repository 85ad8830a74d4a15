#include "src/crashtest/crash_state.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "src/common/logging.h"
#include "src/metrics/export.h"
#include "src/nvm/nvm_device.h"
#include "src/nvme/pmr.h"
#include "src/sim/sync.h"

namespace ccnvme {

OracleFact OracleFact::FileExists(std::string path) {
  OracleFact f;
  f.kind = Kind::kFileExists;
  f.path = std::move(path);
  return f;
}

OracleFact OracleFact::FileAbsent(std::string path) {
  OracleFact f;
  f.kind = Kind::kFileAbsent;
  f.path = std::move(path);
  return f;
}

OracleFact OracleFact::DirExists(std::string path) {
  OracleFact f;
  f.kind = Kind::kDirExists;
  f.path = std::move(path);
  return f;
}

OracleFact OracleFact::FileContent(ExtFs& fs, const std::string& path) {
  OracleFact f;
  f.kind = Kind::kFileContent;
  f.path = path;
  auto ino = fs.Lookup(path);
  CCNVME_CHECK(ino.ok()) << "FileContent fact for missing " << path;
  auto size = fs.FileSize(*ino);
  CCNVME_CHECK(size.ok());
  f.size = *size;
  Buffer content(f.size);
  if (f.size > 0) {
    Status st = fs.Read(*ino, 0, content);
    CCNVME_CHECK(st.ok());
  }
  f.content_hash = Fnv1a(content);
  return f;
}

OracleFact OracleFact::ContentOneOf(const OracleFact& before, const OracleFact& after) {
  CCNVME_CHECK(before.kind == Kind::kFileContent && after.kind == Kind::kFileContent);
  CCNVME_CHECK(before.path == after.path);
  OracleFact f;
  f.kind = Kind::kFileContentOneOf;
  f.path = before.path;
  f.size = before.size;
  f.content_hash = before.content_hash;
  f.alt_size = after.size;
  f.alt_content_hash = after.content_hash;
  return f;
}

OracleFact OracleFact::FileRegion(ExtFs& fs, const std::string& path, uint64_t offset,
                                  uint64_t length) {
  OracleFact f;
  f.kind = Kind::kFileRegion;
  f.path = path;
  f.offset = offset;
  f.size = length;
  auto ino = fs.Lookup(path);
  CCNVME_CHECK(ino.ok()) << "FileRegion fact for missing " << path;
  Buffer content(length);
  if (length > 0) {
    Status st = fs.Read(*ino, offset, content);
    CCNVME_CHECK(st.ok());
  }
  f.content_hash = Fnv1a(content);
  return f;
}

OracleFact OracleFact::KvValue(std::string key, std::span<const uint8_t> value) {
  OracleFact f;
  f.kind = Kind::kKvValue;
  f.path = std::move(key);
  f.size = value.size();
  f.content_hash = Fnv1a(value);
  return f;
}

OracleFact OracleFact::KvValue(std::string key, std::string_view value) {
  return KvValue(std::move(key),
                 std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(value.data()),
                                          value.size()));
}

OracleFact OracleFact::KvAbsent(std::string key) {
  OracleFact f;
  f.kind = Kind::kKvAbsent;
  f.path = std::move(key);
  f.size = kKvSizeAbsent;
  return f;
}

OracleFact OracleFact::KvOneOf(const OracleFact& before, const OracleFact& after) {
  CCNVME_CHECK(before.kind == Kind::kKvValue || before.kind == Kind::kKvAbsent);
  CCNVME_CHECK(after.kind == Kind::kKvValue || after.kind == Kind::kKvAbsent);
  CCNVME_CHECK(before.path == after.path);
  OracleFact f;
  f.kind = Kind::kKvValueOneOf;
  f.path = before.path;
  f.size = before.size;
  f.content_hash = before.content_hash;
  f.alt_size = after.size;
  f.alt_content_hash = after.content_hash;
  return f;
}

std::string DescribeFact(const OracleFact& f) {
  switch (f.kind) {
    case OracleFact::Kind::kFileExists:
      return "exists(" + f.path + ")";
    case OracleFact::Kind::kFileAbsent:
      return "absent(" + f.path + ")";
    case OracleFact::Kind::kDirExists:
      return "dir(" + f.path + ")";
    case OracleFact::Kind::kFileContent:
      return "content(" + f.path + ", size=" + std::to_string(f.size) + ")";
    case OracleFact::Kind::kFileContentOneOf:
      return "one-of(" + f.path + ", sizes=" + std::to_string(f.size) + "|" +
             std::to_string(f.alt_size) + ")";
    case OracleFact::Kind::kFileRegion:
      return "region(" + f.path + ", off=" + std::to_string(f.offset) +
             ", len=" + std::to_string(f.size) + ")";
    case OracleFact::Kind::kKvValue:
      return "kv(" + f.path + ", size=" + std::to_string(f.size) + ")";
    case OracleFact::Kind::kKvAbsent:
      return "kv-absent(" + f.path + ")";
    case OracleFact::Kind::kKvValueOneOf: {
      auto v = [](uint64_t s) {
        return s == kKvSizeAbsent ? std::string("absent") : std::to_string(s);
      };
      return "kv-one-of(" + f.path + ", sizes=" + v(f.size) + "|" + v(f.alt_size) + ")";
    }
  }
  return "?";
}

namespace {

inline constexpr size_t kSectorSize = 512;
inline constexpr size_t kSectorsPerBlock = kFsBlockSize / kSectorSize;

class ContextImpl : public CrashTestContext {
 public:
  ContextImpl(StorageStack& stack, std::vector<FactEvent>* facts,
              const std::vector<BioEvent>* events)
      : stack_(stack),
        facts_(facts),
        events_(events),
        live_mu_(&stack.sim()),
        live_cv_(&stack.sim()) {}

  ExtFs& fs() override { return stack_.fs(); }
  KvNvmeDriver& kv() override {
    CCNVME_CHECK(stack_.kv_driver() != nullptr) << "stack built without config.kv.enabled";
    return *stack_.kv_driver();
  }
  void AddFact(const OracleFact& fact) override {
    facts_->push_back({events_->size(), false, fact});
  }
  void InvalidateFact(const std::string& path) override {
    OracleFact f;
    f.path = path;
    facts_->push_back({events_->size(), true, f});
  }
  void SpawnOnCore(uint16_t core, std::function<void()> body) override {
    live_++;
    const uint16_t queue =
        static_cast<uint16_t>(core % stack_.config().num_queues);
    stack_.Spawn("wl.core" + std::to_string(core) + "." + std::to_string(spawned_++),
                 [this, body = std::move(body)] {
                   body();
                   live_mu_.Lock();
                   live_--;
                   live_mu_.Unlock();
                   live_cv_.NotifyAll();
                 },
                 queue);
  }
  void Join() override {
    live_mu_.Lock();
    while (live_ > 0) {
      live_cv_.Wait(live_mu_);
    }
    live_mu_.Unlock();
  }

 private:
  StorageStack& stack_;
  std::vector<FactEvent>* facts_;
  const std::vector<BioEvent>* events_;
  SimMutex live_mu_;
  SimCondVar live_cv_;
  uint32_t live_ = 0;
  uint32_t spawned_ = 0;
};

// Persistence classification of a recorded event under a crash at a given
// index: guaranteed gone, guaranteed present, or up to the device.
enum class WState : uint8_t { kAbsent, kDurable, kUncertain };

// Classifies every kWrite and every WC kPmrWrite in the prefix
// [0, crash_index). Entries for other events stay kAbsent (unused).
std::vector<WState> Classify(const CrashRecording& rec, size_t crash_index) {
  const auto& events = rec.events;
  const size_t n = std::min(crash_index, events.size());
  std::vector<WState> state(events.size(), WState::kAbsent);

  const bool plp =
      rec.config.ssd.power_loss_protection || !rec.config.ssd.volatile_cache;

  // First pass: index the prefix. Everything device-related is keyed by
  // the member device: each device of a multi-device volume has its own
  // write cache, PMR and queues, so a flush, fence, doorbell or head
  // advance on one member says nothing about the others.
  std::map<uint64_t, size_t> submit_at;  // media seq -> submit event index
  std::set<uint64_t> flush_seqs;
  std::map<uint64_t, size_t> complete_at;  // media seq -> completion index
  // Per-device completion indices of flushes.
  std::map<uint16_t, std::vector<size_t>> flush_complete_at;
  // (index, device, tx_id) of every P-SQDB ring.
  std::vector<std::tuple<size_t, uint16_t, uint64_t>> doorbells;
  // (device, tx_id) pairs whose P-SQ-head advance landed.
  std::set<std::pair<uint16_t, uint64_t>> head_advanced_txs;
  std::map<std::pair<uint16_t, uint16_t>, std::vector<size_t>> fences_by_dev_qid;
  // NVM persist barriers are global (one cache domain per NVM tier), so a
  // sorted index list suffices.
  std::vector<size_t> nvm_fences;
  for (size_t i = 0; i < n; ++i) {
    const BioEvent& ev = events[i];
    switch (ev.op) {
      case BioOp::kWrite:
        submit_at[ev.seq] = i;
        break;
      case BioOp::kFlush:
        flush_seqs.insert(ev.seq);
        break;
      case BioOp::kComplete:
        if (flush_seqs.count(ev.seq) != 0) {
          flush_complete_at[ev.device].push_back(i);
        } else {
          complete_at[ev.seq] = i;
        }
        break;
      case BioOp::kPmrDoorbell:
        doorbells.emplace_back(i, ev.device, ev.tx_id);
        break;
      case BioOp::kPmrWrite:
        if ((ev.flags & kBioPmrWc) == 0) {
          // The only uncached PMR data stores the driver emits are P-SQ-head
          // advances, the persistent completion record of a transaction.
          head_advanced_txs.emplace(ev.device, ev.tx_id);
        }
        break;
      case BioOp::kPmrFence:
        fences_by_dev_qid[{ev.device, ev.qid}].push_back(i);
        break;
      case BioOp::kNvmFence:
        nvm_fences.push_back(i);
        break;
      default:
        break;
    }
  }

  // Second pass: classify.
  for (size_t i = 0; i < n; ++i) {
    const BioEvent& ev = events[i];
    if (ev.op == BioOp::kWrite) {
      const auto cit = complete_at.find(ev.seq);
      const bool completed = cit != complete_at.end();
      if ((ev.flags & kBioTx) != 0) {
        // ccNVMe transactional write. The controller fetches it only after
        // its transaction's doorbell ON ITS OWN DEVICE, so without one
        // before the cut it cannot have touched media. It is guaranteed
        // durable once that device's in-order completion (P-SQ-head
        // advance, or the durable-completion record) precedes the cut.
        const bool durable =
            completed || head_advanced_txs.count({ev.device, ev.tx_id}) != 0;
        if (durable) {
          state[i] = WState::kDurable;
          continue;
        }
        bool doorbelled = false;
        for (const auto& [di, dev, tx] : doorbells) {
          if (di > i && dev == ev.device && tx == ev.tx_id) {
            doorbelled = true;
            break;
          }
        }
        state[i] = doorbelled ? WState::kUncertain : WState::kAbsent;
      } else {
        // Stock path: eligible from submission (the device may execute it
        // any time). Durable per the cache model; only flushes on the same
        // member device drain this write's cache.
        bool durable = false;
        if (completed) {
          if (plp || (ev.flags & kBioFua) != 0) {
            durable = true;
          } else if (auto fit = flush_complete_at.find(ev.device);
                     fit != flush_complete_at.end()) {
            for (size_t fc : fit->second) {
              if (fc > cit->second) {
                durable = true;
                break;
              }
            }
          }
        }
        state[i] = durable ? WState::kDurable : WState::kUncertain;
      }
    } else if (ev.op == BioOp::kPmrWrite) {
      if ((ev.flags & kBioPmrWc) == 0) {
        state[i] = WState::kDurable;  // uncached store: durable immediately
        continue;
      }
      // WC-buffered SQE store: persistent once a fence on its device+queue
      // follows; otherwise any word subset may have landed.
      bool fenced = false;
      auto fit = fences_by_dev_qid.find({ev.device, ev.qid});
      if (fit != fences_by_dev_qid.end()) {
        for (size_t fi : fit->second) {
          if (fi > i) {
            fenced = true;
            break;
          }
        }
      }
      state[i] = fenced ? WState::kDurable : WState::kUncertain;
    } else if (ev.op == BioOp::kNvmWrite) {
      // NVM store: persistent once any later flush+fence barrier precedes
      // the cut (clwb+sfence drains the whole cache domain); otherwise any
      // 8-byte-word subset may have landed.
      const bool fenced = !nvm_fences.empty() && nvm_fences.back() > i;
      state[i] = fenced ? WState::kDurable : WState::kUncertain;
    }
  }
  return state;
}

size_t MediaBlocks(const BioEvent& ev) {
  return ev.data.empty() ? 0 : (ev.data.size() + kFsBlockSize - 1) / kFsBlockSize;
}

}  // namespace

CrashRecording RecordWorkload(const StackConfig& config, const CrashWorkload& workload) {
  CrashRecording rec;
  rec.config = config;
  StorageStack stack(config);
  // Small ring: the flight recorder only needs the last moments before the
  // (simulated) crash. Tracing never perturbs virtual time, so recordings
  // are identical with or without it.
  Tracer& tracer = stack.EnableTracing(/*ring_capacity=*/512);
  Status st = config.kv.enabled ? stack.KvFormat() : stack.MkfsAndMount();
  CCNVME_CHECK(st.ok()) << st.ToString();
  rec.base = stack.CaptureCrashImage();

  stack.SetRecorder([&rec](const BioEvent& ev) { rec.events.push_back(ev); });
  ContextImpl ctx(stack, &rec.facts, &rec.events);
  stack.Run([&] { workload(ctx); });
  rec.trace_tail = tracer.FormatTail(32);
  return rec;
}

std::vector<size_t> ConsistencyBoundaries(const std::vector<BioEvent>& events) {
  std::vector<size_t> out;
  out.push_back(0);
  for (size_t i = 0; i < events.size(); ++i) {
    const BioOp op = events[i].op;
    if (op == BioOp::kComplete || op == BioOp::kFlush || op == BioOp::kPmrDoorbell ||
        op == BioOp::kNvmFence) {
      out.push_back(i + 1);
    } else if (op == BioOp::kPmrFence && events[i].qid == kFtlQid) {
      // KV-path persist fence: the device-internal ARM/COMMIT fences of the
      // KV Store protocol move the preceding WC stores (shadow map-entry,
      // directory meta word) from uncertain to durable — exactly the
      // boundaries that bracket the map+data atomicity window.
      out.push_back(i + 1);
    } else if (op == BioOp::kPmrWrite && events[i].qid == kFtlQid &&
               (events[i].flags & kBioPmrWc) != 0) {
      // Cut INSIDE the KV commit window, right after each WC store and
      // before its fence: here the key bytes, the shadow map-entry and the
      // directory meta word are uncertain items, so the explorer enumerates
      // their absent/present/torn combinations — the map+data atomicity
      // window itself, not just its fenced edges.
      out.push_back(i + 1);
    } else if (op == BioOp::kPmrWrite && (events[i].flags & kBioPmrWc) == 0) {
      // An uncached P-SQ-head advance moves a transaction OUT of its
      // device's in-doubt window, changing what recovery trusts — a real
      // boundary on multi-device volumes, where other members' doorbells
      // may still be pending. On a single device the advance is followed
      // immediately by the transaction's durable-completion records, so
      // the boundary is only emitted when the next event is not already a
      // boundary op (keeping single-device state counts unchanged).
      const bool next_is_boundary =
          i + 1 < events.size() &&
          (events[i + 1].op == BioOp::kComplete || events[i + 1].op == BioOp::kFlush ||
           events[i + 1].op == BioOp::kPmrDoorbell);
      if (!next_is_boundary) {
        out.push_back(i + 1);
      }
    }
  }
  if (out.back() != events.size()) {
    out.push_back(events.size());
  }
  return out;
}

std::vector<UncertainItem> CollectUncertain(const CrashRecording& rec, size_t crash_index) {
  const std::vector<WState> state = Classify(rec, crash_index);
  const size_t n = std::min(crash_index, rec.events.size());
  std::vector<UncertainItem> items;
  for (size_t i = 0; i < n; ++i) {
    if (state[i] != WState::kUncertain) {
      continue;
    }
    const BioEvent& ev = rec.events[i];
    if (ev.op == BioOp::kWrite) {
      const size_t blocks = MediaBlocks(ev);
      for (size_t b = 0; b < blocks; ++b) {
        items.push_back(UncertainItem{i, static_cast<uint32_t>(b), false});
      }
    } else if (ev.op == BioOp::kPmrWrite) {
      items.push_back(UncertainItem{i, 0, true, false});
    } else if (ev.op == BioOp::kNvmWrite) {
      items.push_back(UncertainItem{i, 0, false, true});
    }
  }
  return items;
}

uint64_t TornMask(uint64_t torn_seed, const UncertainItem& item, uint8_t variant,
                  size_t units) {
  CCNVME_CHECK(units >= 1 && units <= 64);
  if (units == 1) {
    return 1;  // a one-unit payload cannot tear
  }
  uint8_t key[32];
  PutU64(key, 0, torn_seed);
  PutU64(key, 8, item.event_index);
  // is_nvm gets its own key byte rather than widening the block shift, so
  // media/PMR items keep the pre-NVM-tier key layout and replay artifacts
  // saved by earlier versions still reproduce the same crash states.
  PutU64(key, 16, (static_cast<uint64_t>(item.block) << 1) | (item.is_pmr ? 1 : 0));
  PutU64(key, 24, variant | (item.is_nvm ? 0x100ull : 0));
  const uint64_t h = Fnv1a(key);
  const uint64_t non_trivial = (units == 64 ? ~0ull - 1 : (1ull << units) - 2);
  return 1 + (h % non_trivial);  // in [1, 2^units - 2]: strict, non-empty
}

CrashImage BuildCrashState(const CrashRecording& rec, const CrashPlan& plan,
                           uint64_t torn_seed) {
  const std::vector<WState> state = Classify(rec, plan.crash_index);
  const std::vector<UncertainItem> items = CollectUncertain(rec, plan.crash_index);
  std::map<std::pair<size_t, uint32_t>, uint8_t> choice_of;
  for (size_t k = 0; k < items.size(); ++k) {
    const uint8_t c = k < plan.choices.size() ? plan.choices[k] : kChoiceAbsent;
    choice_of[{items[k].event_index, items[k].block}] = c;
  }

  // The image shares its blocks and pages with rec.base; every write below
  // gives this state its own copy of a block or page before changing it.
  CrashImage image = rec.base;

  const size_t n = std::min(plan.crash_index, rec.events.size());
  for (size_t i = 0; i < n; ++i) {
    const BioEvent& ev = rec.events[i];
    if (ev.op == BioOp::kNvmWrite) {
      CCNVME_CHECK_LE(ev.lba + ev.data.size(), image.nvm.size())
          << "NVM store outside the recorded base image";
      uint64_t mask = ~0ull;  // all words
      if (state[i] == WState::kUncertain) {
        const uint8_t c = choice_of[{i, 0}];
        if (c == kChoiceAbsent) {
          continue;
        }
        if (c >= kChoiceTornBase) {
          const size_t words = (ev.data.size() + kNvmWordSize - 1) / kNvmWordSize;
          mask = TornMask(torn_seed, UncertainItem{i, 0, false, true},
                          static_cast<uint8_t>(c - kChoiceTornBase), words);
        }
      }
      NvmApplyTornWords(image.nvm, ev.lba, ev.data, mask);
      continue;
    }
    CCNVME_CHECK_LT(ev.device, image.devices.size());
    if (ev.op == BioOp::kWrite) {
      if (state[i] == WState::kAbsent) {
        continue;
      }
      const size_t blocks = MediaBlocks(ev);
      for (size_t b = 0; b < blocks; ++b) {
        uint64_t mask = ~0ull;  // all sectors
        if (state[i] == WState::kUncertain) {
          const uint8_t c = choice_of[{i, static_cast<uint32_t>(b)}];
          if (c == kChoiceAbsent) {
            continue;
          }
          if (c >= kChoiceTornBase) {
            mask = TornMask(torn_seed, UncertainItem{i, static_cast<uint32_t>(b), false},
                            static_cast<uint8_t>(c - kChoiceTornBase), kSectorsPerBlock);
          }
        }
        const size_t begin = b * kFsBlockSize;
        const size_t end = std::min(begin + kFsBlockSize, ev.data.size());
        MediaBlock& dst = image.devices[ev.device].media[ev.lba + b];
        const std::span<const uint8_t> src(ev.data);
        if (mask == ~0ull && end - begin == kFsBlockSize) {
          dst.Assign(src.subspan(begin, kFsBlockSize));
          continue;
        }
        if (dst.size() != kFsBlockSize) {
          dst = MediaBlock(kFsBlockSize);
        }
        const std::span<uint8_t> out = dst.Mutable();
        for (size_t s = 0; s * kSectorSize < end - begin; ++s) {
          if (((mask >> s) & 1) == 0) {
            continue;
          }
          const size_t so = begin + s * kSectorSize;
          const size_t len = std::min(kSectorSize, end - so);
          std::memcpy(out.data() + s * kSectorSize, src.data() + so, len);
        }
      }
    } else if (ev.op == BioOp::kPmrWrite || ev.op == BioOp::kPmrDoorbell) {
      PageImage& pmr = image.devices[ev.device].pmr;
      CCNVME_CHECK_LE(ev.lba + ev.data.size(), pmr.size())
          << "PMR store outside the recorded base image";
      if (ev.op == BioOp::kPmrWrite && state[i] == WState::kUncertain) {
        const uint8_t c = choice_of[{i, 0}];
        if (c == kChoiceAbsent) {
          continue;
        }
        if (c >= kChoiceTornBase) {
          // PMR MMIO and NVM stores tear at the same 8-byte word.
          static_assert(kMmioWordSize == kNvmWordSize);
          const size_t words = (ev.data.size() + kMmioWordSize - 1) / kMmioWordSize;
          NvmApplyTornWords(pmr, ev.lba, ev.data,
                            TornMask(torn_seed, UncertainItem{i, 0, true},
                                     static_cast<uint8_t>(c - kChoiceTornBase), words));
          continue;
        }
      }
      pmr.Write(ev.lba, ev.data);
    }
  }
  return image;
}

std::string CheckCrashState(const CrashRecording& rec, const CrashPlan& plan,
                            uint64_t torn_seed, std::string* metrics_json) {
  const CrashImage image = BuildCrashState(rec, plan, torn_seed);
  StorageStack stack(rec.config, image);
  if (metrics_json != nullptr) {
    stack.EnableMetrics();
  }
  auto export_metrics = [&] {
    if (metrics_json != nullptr) {
      *metrics_json = ExportJson(stack.metrics()->TakeSnapshot());
    }
  };
  if (rec.config.kv.enabled) {
    // KV-native stack: "mount" = KvSsd attach (shadow replay + liveness
    // rebuild), "fsck" = the KvSsd structural check, facts = key lookups
    // through the KV driver.
    Status attach = stack.KvAttach();
    if (!attach.ok()) {
      export_metrics();
      return "kv attach failed: " + attach.ToString();
    }
    std::map<std::string, OracleFact> active;
    for (const auto& fe : rec.facts) {
      if (fe.event_index > plan.crash_index) {
        break;
      }
      if (fe.invalidate) {
        active.erase(fe.fact.path);
      } else {
        active[fe.fact.path] = fe.fact;
      }
    }
    std::string failure;
    stack.Run([&] {
      Status consistent = stack.kv_ssd()->CheckConsistency();
      if (!consistent.ok()) {
        failure = "inconsistent kv-ssd: " + consistent.ToString();
        return;
      }
      for (const auto& [key, fact] : active) {
        auto got = stack.kv_driver()->Retrieve(0, fact.path);
        if (!got.ok() && got.status().code() != ErrorCode::kNotFound) {
          failure = DescribeFact(fact) + " violated: retrieve failed: " +
                    got.status().ToString();
          return;
        }
        auto matches = [&](uint64_t want_size, uint64_t want_hash) {
          if (want_size == kKvSizeAbsent) {
            return !got.ok();
          }
          return got.ok() && got->size() == want_size && Fnv1a(*got) == want_hash;
        };
        switch (fact.kind) {
          case OracleFact::Kind::kKvAbsent:
            if (got.ok()) {
              failure = DescribeFact(fact) + " violated: key still exists";
              return;
            }
            break;
          case OracleFact::Kind::kKvValue:
            if (!matches(fact.size, fact.content_hash)) {
              failure = DescribeFact(fact) + " violated: value " +
                        (got.ok() ? "mismatch" : "missing");
              return;
            }
            break;
          case OracleFact::Kind::kKvValueOneOf:
            if (!matches(fact.size, fact.content_hash) &&
                !matches(fact.alt_size, fact.alt_content_hash)) {
              failure = DescribeFact(fact) + " violated: value matches neither version";
              return;
            }
            break;
          default:
            failure = "non-KV fact on a KV stack: " + DescribeFact(fact);
            return;
        }
      }
    });
    export_metrics();
    return failure;
  }

  Status mount = stack.MountExisting();
  if (!mount.ok()) {
    export_metrics();
    return "mount failed: " + mount.ToString();
  }

  // Latest fact per key wins (a later unlink supersedes an earlier
  // create); an invalidation disarms the path until the next fact. Region
  // facts are keyed per path@offset so one file's regions coexist, and an
  // invalidation of the path disarms every one of them.
  const auto fact_key = [](const OracleFact& f) {
    return f.kind == OracleFact::Kind::kFileRegion
               ? f.path + "@" + std::to_string(f.offset)
               : f.path;
  };
  std::map<std::string, OracleFact> active;
  for (const auto& fe : rec.facts) {
    if (fe.event_index > plan.crash_index) {
      break;
    }
    if (fe.invalidate) {
      const std::string region_prefix = fe.fact.path + "@";
      for (auto it = active.begin(); it != active.end();) {
        const bool match = it->first == fe.fact.path ||
                           it->first.compare(0, region_prefix.size(), region_prefix) == 0;
        it = match ? active.erase(it) : ++it;
      }
    } else {
      active[fact_key(fe.fact)] = fe.fact;
    }
  }

  std::string failure;
  stack.Run([&] {
    Status consistent = stack.fs().CheckConsistency();
    if (!consistent.ok()) {
      failure = "inconsistent fs: " + consistent.ToString();
      return;
    }
    for (const auto& [key, fact] : active) {
      auto ino = stack.fs().Lookup(fact.path);
      switch (fact.kind) {
        case OracleFact::Kind::kFileAbsent:
          if (ino.ok()) {
            failure = DescribeFact(fact) + " violated: path still exists";
            return;
          }
          break;
        case OracleFact::Kind::kFileExists:
        case OracleFact::Kind::kDirExists:
          if (!ino.ok()) {
            failure = DescribeFact(fact) + " violated: path missing";
            return;
          }
          break;
        case OracleFact::Kind::kFileRegion: {
          if (!ino.ok()) {
            failure = DescribeFact(fact) + " violated: path missing";
            return;
          }
          auto size = stack.fs().FileSize(*ino);
          if (!size.ok() || *size < fact.offset + fact.size) {
            failure = DescribeFact(fact) + " violated: file too short";
            return;
          }
          Buffer content(fact.size);
          if (fact.size > 0 && !stack.fs().Read(*ino, fact.offset, content).ok()) {
            failure = DescribeFact(fact) + " violated: region unreadable";
            return;
          }
          if (Fnv1a(content) != fact.content_hash) {
            failure = DescribeFact(fact) + " violated: region content mismatch";
            return;
          }
          break;
        }
        case OracleFact::Kind::kFileContent:
        case OracleFact::Kind::kFileContentOneOf: {
          if (!ino.ok()) {
            failure = DescribeFact(fact) + " violated: path missing";
            return;
          }
          auto size = stack.fs().FileSize(*ino);
          if (!size.ok()) {
            failure = DescribeFact(fact) + " violated: size unreadable";
            return;
          }
          auto hash_matches = [&](uint64_t want_size, uint64_t want_hash) -> bool {
            if (*size != want_size) {
              return false;
            }
            Buffer content(want_size);
            if (want_size > 0 && !stack.fs().Read(*ino, 0, content).ok()) {
              return false;
            }
            return Fnv1a(content) == want_hash;
          };
          if (fact.kind == OracleFact::Kind::kFileContent) {
            if (*size != fact.size) {
              failure = DescribeFact(fact) + " violated: size mismatch";
              return;
            }
            if (!hash_matches(fact.size, fact.content_hash)) {
              failure = DescribeFact(fact) + " violated: content mismatch";
              return;
            }
          } else if (!hash_matches(fact.size, fact.content_hash) &&
                     !hash_matches(fact.alt_size, fact.alt_content_hash)) {
            failure = DescribeFact(fact) + " violated: content matches neither version";
            return;
          }
          break;
        }
        case OracleFact::Kind::kKvValue:
        case OracleFact::Kind::kKvAbsent:
        case OracleFact::Kind::kKvValueOneOf:
          // KV facts only arise on config.kv.enabled stacks (handled above).
          break;
      }
    }
  });
  export_metrics();
  return failure;
}

}  // namespace ccnvme
