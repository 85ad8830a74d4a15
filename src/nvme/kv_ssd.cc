#include "src/nvme/kv_ssd.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/metrics/metrics.h"
#include "src/trace/tracer.h"

namespace ccnvme {

namespace {
constexpr uint64_t kPageBytes = 4096;
}  // namespace

KvPmrLayout KvPmrLayout::From(uint32_t dir_slots, uint32_t shadow_slots,
                              uint64_t total_lpns, uint32_t map_entries_per_segment,
                              size_t pmr_size) {
  KvPmrLayout l;
  l.num_segments = static_cast<uint32_t>(
      (total_lpns + map_entries_per_segment - 1) / map_entries_per_segment);
  l.sb_off = pmr_size - kKvSuperblockBytes;
  l.gtd_off = l.sb_off - static_cast<size_t>(l.num_segments) * 8;
  l.shadow_off = l.gtd_off - static_cast<size_t>(shadow_slots) * kKvShadowBytes;
  l.dir_off = l.shadow_off - static_cast<size_t>(dir_slots) * kKvDirSlotBytes;
  return l;
}

KvSsd::KvSsd(Simulator* sim, SsdModel* ssd, Pmr* pmr, const KvSsdConfig& config)
    : sim_(sim), ssd_(ssd), pmr_(pmr), config_(config), mu_(sim), ftl_cv_(sim) {
  CCNVME_CHECK(config_.dir_slots > 0 && config_.shadow_slots > 1);
  CCNVME_CHECK(config_.total_lpns <= (1ull << 26)) << "meta word packs 26 LPN bits";
  CCNVME_CHECK(config_.max_value_bytes < (1u << 20)) << "meta word packs 20 length bits";
  CCNVME_CHECK(config_.max_value_bytes <= config_.pages_per_block * kPageBytes)
      << "a value must fit one erase block (contiguous run)";
  layout_ = KvPmrLayout::From(config_.dir_slots, config_.shadow_slots,
                              config_.total_lpns, config_.map_entries_per_segment,
                              pmr_->size());
  // The ccNVMe P-SQ area grows from the bottom of the PMR; keep clear of it.
  CCNVME_CHECK(layout_.dir_off >= 64 * 1024)
      << "KV metadata would overrun the PMR (shrink dir_slots or the geometry)";
  dir_.resize(config_.dir_slots);
}

KvSsd::~KvSsd() = default;

// --- meta word -------------------------------------------------------------

uint64_t KvSsd::PackMeta(uint64_t lpn, uint32_t value_len, uint32_t key_len) {
  return kMetaUsed | (lpn & 0x3FFFFFF) | (static_cast<uint64_t>(value_len & 0xFFFFF) << 26) |
         (static_cast<uint64_t>(key_len & 0x1F) << 46);
}

// --- recorded PMR traffic --------------------------------------------------

void KvSsd::PmrStoreWc(size_t offset, std::span<const uint8_t> data) {
  pmr_->Write(offset, data);
  Simulator::Sleep(config_.pmr_store_ns);
  if (recorder_) {
    BioEvent ev;
    ev.op = BioOp::kPmrWrite;
    ev.lba = offset;
    ev.flags = kBioPmrWc;
    ev.qid = kFtlQid;
    ev.device = device_id_;
    ev.data.assign(data.begin(), data.end());
    recorder_(ev);
  }
}

void KvSsd::PmrStoreUncached(size_t offset, std::span<const uint8_t> data) {
  pmr_->Write(offset, data);
  Simulator::Sleep(config_.pmr_store_ns);
  if (recorder_) {
    BioEvent ev;
    ev.op = BioOp::kPmrWrite;
    ev.lba = offset;
    ev.qid = kFtlQid;
    ev.device = device_id_;
    ev.data.assign(data.begin(), data.end());
    recorder_(ev);
  }
}

void KvSsd::PmrFence() {
  Simulator::Sleep(config_.pmr_fence_ns);
  if (recorder_) {
    BioEvent ev;
    ev.op = BioOp::kPmrFence;
    ev.qid = kFtlQid;
    ev.device = device_id_;
    recorder_(ev);
  }
}

// --- FtlEnv ----------------------------------------------------------------

void KvSsd::PersistGtd(uint32_t seg, uint64_t ppn) {
  Buffer word(8);
  PutU64(word, 0, ppn);
  PmrStoreUncached(layout_.gtd_off + static_cast<size_t>(seg) * 8, word);
}

uint64_t KvSsd::LoadGtd(uint32_t seg) {
  Buffer word(8);
  pmr_->Read(layout_.gtd_off + static_cast<size_t>(seg) * 8, word);
  return GetU64(word, 0);
}

bool KvSsd::FlashWrite(uint64_t ppn, const Buffer& data) {
  CCNVME_CHECK(data.size() == kPageBytes);
  // A volatile-cache drive would leave completed pages in its cache; force
  // unit access there so every completed KV page program is durable (the
  // commit protocol depends on it). PLP drives take the normal path.
  const bool fua = ssd_->config().volatile_cache && !ssd_->config().power_loss_protection;
  const uint64_t seq = media_seq_++;
  if (recorder_) {
    BioEvent ev;
    ev.op = BioOp::kWrite;
    ev.seq = seq;
    ev.lba = ppn;
    ev.flags = fua ? kBioFua : 0;
    ev.device = device_id_;
    ev.data = data;
    recorder_(ev);
  }
  const bool ok = ssd_->MediaWrite(ppn * kPageBytes, data, fua);
  if (recorder_) {
    BioEvent ev;
    ev.op = BioOp::kComplete;
    ev.seq = seq;
    ev.lba = ppn;
    ev.device = device_id_;
    recorder_(ev);
  }
  return ok;
}

bool KvSsd::FlashRead(uint64_t ppn, Buffer* out) {
  out->assign(kPageBytes, 0);
  return ssd_->MediaRead(ppn * kPageBytes, *out);
}

void KvSsd::OnMapCheckpointed() {
  // Every dirty segment + its GTD root is durable: shadows at or below
  // last_seq_ are now redundant. Advance the checkpoint with one uncached
  // 8-byte store (atomic, durable immediately).
  checkpoint_seq_ = last_seq_;
  Buffer word(8);
  PutU64(word, 0, checkpoint_seq_);
  PmrStoreUncached(layout_.sb_off + 8, word);
  // Stats mirror for offline tools; not correctness-critical.
  Buffer stats(32);
  PutU64(stats, 0, ftl_ == nullptr ? 0 : ftl_->host_pages_written());
  PutU64(stats, 8, ftl_ == nullptr ? 0 : ftl_->media_pages_written());
  PutU64(stats, 16, ftl_ == nullptr ? 0 : ftl_->gc_runs());
  PutU64(stats, 24, ftl_ == nullptr ? 0 : ftl_->gc_migrated_pages());
  pmr_->Write(layout_.sb_off + 24, stats);
}

// --- format / attach -------------------------------------------------------

uint64_t KvSsd::GeometryHash() const {
  Buffer geo(48);
  PutU64(geo, 0, config_.dir_slots);
  PutU64(geo, 8, config_.shadow_slots);
  PutU64(geo, 16, config_.flash_pages);
  PutU64(geo, 24, config_.total_lpns);
  PutU64(geo, 32, config_.pages_per_block);
  PutU64(geo, 40, config_.map_entries_per_segment);
  return Fnv1a(geo);
}

void KvSsd::WriteSuperblock() {
  Buffer sb(kKvSuperblockBytes, 0);
  PutU32(sb, 0, kKvSsdMagic);
  PutU32(sb, 4, kKvSsdVersion);
  PutU64(sb, 8, checkpoint_seq_);
  PutU64(sb, 16, GeometryHash());
  // 24..56: stats (host/media/gc_runs/gc_migrated), zero at format.
  PutU32(sb, 56, config_.dir_slots);
  PutU32(sb, 60, config_.shadow_slots);
  PutU64(sb, 64, config_.flash_pages);
  PutU64(sb, 72, config_.total_lpns);
  PutU32(sb, 80, config_.pages_per_block);
  PutU32(sb, 84, config_.map_entries_per_segment);
  PutU32(sb, 88, config_.map_cache_segments);
  PutU32(sb, 92, config_.gc_free_blocks_low);
  pmr_->Write(layout_.sb_off, sb);
}

Status KvSsd::Format() {
  SimLockGuard lock(mu_);
  // Direct (unrecorded) PMR initialization, the mkfs analogue: zero the
  // directory + shadow ring, set every GTD root to "none".
  Buffer zeros(static_cast<size_t>(config_.dir_slots) * kKvDirSlotBytes +
                   static_cast<size_t>(config_.shadow_slots) * kKvShadowBytes,
               0);
  pmr_->Write(layout_.dir_off, zeros);
  Buffer none(static_cast<size_t>(layout_.num_segments) * 8, 0xFF);
  pmr_->Write(layout_.gtd_off, none);
  checkpoint_seq_ = 0;
  last_seq_ = 0;
  live_keys_ = 0;
  WriteSuperblock();
  dir_.assign(config_.dir_slots, DirEnt{});
  attach_errors_.clear();
  ftl_ = std::make_unique<Ftl>(sim_, this, config_.ToFtlConfig());
  attached_ = true;
  return OkStatus();
}

Status KvSsd::Attach() {
  SimLockGuard lock(mu_);
  ScopedSpan span(sim_->tracer(), TracePoint::kFtlRecover);
  Buffer sb(kKvSuperblockBytes);
  pmr_->Read(layout_.sb_off, sb);
  if (GetU32(sb, 0) != kKvSsdMagic || GetU32(sb, 4) != kKvSsdVersion) {
    return IoError("kv-ssd: no superblock (device not formatted?)");
  }
  if (GetU64(sb, 16) != GeometryHash()) {
    return IoError("kv-ssd: superblock geometry does not match the config");
  }
  checkpoint_seq_ = GetU64(sb, 8);
  last_seq_ = checkpoint_seq_;
  attach_errors_.clear();
  live_keys_ = 0;
  ftl_ = std::make_unique<Ftl>(sim_, this, config_.ToFtlConfig());
  ftl_->BeginAttach();
  ftl_->AttachLoadGtd();

  // Shadow replay: crc-clean entries with consecutive sequence numbers
  // starting right above the checkpoint. A gap means the later entries
  // never armed before the crash; their commits cannot have happened
  // either (the commit fence orders arm before commit), so stop there.
  std::vector<Shadow> cands;
  for (uint32_t s = 0; s < config_.shadow_slots; ++s) {
    Buffer rec(kKvShadowBytes);
    pmr_->Read(layout_.shadow_off + static_cast<size_t>(s) * kKvShadowBytes, rec);
    const uint64_t seq = GetU64(rec, 0);
    if (seq <= checkpoint_seq_ || seq > checkpoint_seq_ + config_.shadow_slots) {
      continue;
    }
    if (GetU32(rec, 28) != ShadowCrc(std::span<const uint8_t>(rec.data(), 28))) {
      continue;
    }
    Shadow sh;
    sh.seq = seq;
    sh.lpn = GetU64(rec, 8);
    sh.npages = GetU32(rec, 16);
    sh.ppn = GetU32(rec, 20);
    sh.slot = GetU32(rec, 24);
    cands.push_back(sh);
  }
  std::sort(cands.begin(), cands.end(),
            [](const Shadow& a, const Shadow& b) { return a.seq < b.seq; });
  for (const Shadow& sh : cands) {
    if (sh.seq != last_seq_ + 1) {
      break;
    }
    for (uint32_t i = 0; i < sh.npages; ++i) {
      ftl_->MapSetForReplay(sh.lpn + i, sh.ppn + i);
    }
    last_seq_ = sh.seq;
  }

  // Directory walk: mirror the slots into RAM and rebuild physical-page
  // liveness. Every LPN a live entry covers must be mapped — an unmapped
  // one means the commit word landed without its shadow (the injected-bug
  // signature) or the image is corrupt.
  dir_.assign(config_.dir_slots, DirEnt{});
  std::vector<uint8_t> claimed(config_.total_lpns, 0);
  for (uint32_t s = 0; s < config_.dir_slots; ++s) {
    Buffer raw(kKvDirSlotBytes);
    pmr_->Read(layout_.dir_off + static_cast<size_t>(s) * kKvDirSlotBytes, raw);
    DirEnt& e = dir_[s];
    std::copy(raw.begin(), raw.begin() + kKvMaxKeyLen, e.key.begin());
    e.meta = GetU64(raw, 24);
    if (!MetaLive(e.meta)) {
      continue;
    }
    live_keys_++;
    const uint32_t key_len = MetaKeyLen(e.meta);
    const uint64_t lpn = MetaLpn(e.meta);
    const uint32_t npages = MetaPages(e.meta);
    if (key_len < 1 || key_len > kKvMaxKeyLen ||
        MetaValueLen(e.meta) > config_.max_value_bytes ||
        lpn + npages > config_.total_lpns) {
      attach_errors_.push_back("kv-ssd: directory slot " + std::to_string(s) +
                               " has out-of-range fields");
      continue;
    }
    for (uint32_t i = 0; i < npages; ++i) {
      claimed[lpn + i] = 1;
      const uint64_t ppn = ftl_->MapLookup(lpn + i);
      if (ppn == kFtlUnmapped || ppn >= config_.flash_pages) {
        attach_errors_.push_back(
            "kv-ssd: directory entry in slot " + std::to_string(s) +
            " covers unmapped lpn " + std::to_string(lpn + i) +
            " (committed meta word without a durable shadow map-entry)");
        continue;
      }
      if (!ftl_->MarkLive(lpn + i, ppn)) {
        attach_errors_.push_back("kv-ssd: physical page " + std::to_string(ppn) +
                                 " claimed by two live mappings");
      }
    }
  }

  // Orphan sweep: drop mappings no live entry claims — the residue of
  // stores whose commit word never landed (a replayed shadow of an aborted
  // store, or staged entries that rode a mid-store map checkpoint). Their
  // data pages stay unclaimed and fall back to the free/stale pools below.
  for (uint64_t lpn = 0; lpn < config_.total_lpns; ++lpn) {
    if (claimed[lpn] == 0) {
      ftl_->MapClearUnclaimed(lpn);
    }
  }
  ftl_->FinishAttach();
  attached_ = true;
  PublishFtlMetrics();
  return OkStatus();
}

Status KvSsd::CheckConsistency() {
  SimLockGuard lock(mu_);
  if (!attached_) {
    return IoError("kv-ssd: not attached");
  }
  if (!attach_errors_.empty()) {
    return IoError(attach_errors_.front() +
                           (attach_errors_.size() > 1
                                ? " (+" + std::to_string(attach_errors_.size() - 1) +
                                      " more)"
                                : ""));
  }
  return OkStatus();
}

uint32_t KvSsd::ShadowCrc(std::span<const uint8_t> rec28) {
  return static_cast<uint32_t>(Fnv1a(rec28) & 0xFFFFFFFF);
}

void KvSsd::PublishFtlMetrics() {
  Metrics* m = sim_->metrics();
  if (m == nullptr || ftl_ == nullptr) {
    return;
  }
  if (metrics_seen_ != m) {
    metrics_seen_ = m;
    MetricsRegistry& r = m->registry();
    gauge_handles_[0] = r.Gauge("ftl.waf");  // fixed-point x1000 (gauges are integral)
    gauge_handles_[1] = r.Gauge("ftl.host_pages");
    gauge_handles_[2] = r.Gauge("ftl.media_pages");
    gauge_handles_[3] = r.Gauge("ftl.gc_runs");
    gauge_handles_[4] = r.Gauge("ftl.gc_migrated_pages");
    gauge_handles_[5] = r.Gauge("ftl.map_loads");
    gauge_handles_[6] = r.Gauge("ftl.free_blocks");
    gauge_handles_[7] = r.Gauge("kv.live_keys");
  }
  MetricsRegistry& r = m->registry();
  r.GaugeSet(gauge_handles_[0], static_cast<int64_t>(ftl_->waf() * 1000.0));
  r.GaugeSet(gauge_handles_[1], static_cast<int64_t>(ftl_->host_pages_written()));
  r.GaugeSet(gauge_handles_[2], static_cast<int64_t>(ftl_->media_pages_written()));
  r.GaugeSet(gauge_handles_[3], static_cast<int64_t>(ftl_->gc_runs()));
  r.GaugeSet(gauge_handles_[4], static_cast<int64_t>(ftl_->gc_migrated_pages()));
  r.GaugeSet(gauge_handles_[5], static_cast<int64_t>(ftl_->map_loads()));
  r.GaugeSet(gauge_handles_[6], static_cast<int64_t>(ftl_->free_blocks()));
  r.GaugeSet(gauge_handles_[7], static_cast<int64_t>(live_keys_));
}

// --- directory probing -----------------------------------------------------

bool KvSsd::KeyMatches(const DirEnt& e, std::span<const uint8_t> key) const {
  if (MetaKeyLen(e.meta) != key.size()) {
    return false;
  }
  return std::equal(key.begin(), key.end(), e.key.begin());
}

void KvSsd::Probe(std::span<const uint8_t> key, int* found, int* insert) const {
  *found = -1;
  *insert = -1;
  const uint32_t h = static_cast<uint32_t>(Fnv1a(key) % config_.dir_slots);
  for (uint32_t i = 0; i < config_.dir_slots; ++i) {
    const uint32_t s = (h + i) % config_.dir_slots;
    const DirEnt& e = dir_[s];
    if (e.meta == 0) {
      if (*insert < 0) {
        *insert = static_cast<int>(s);
      }
      return;  // empty slot terminates the probe chain
    }
    if ((e.meta & kMetaTomb) != 0) {
      if (*insert < 0) {
        *insert = static_cast<int>(s);
      }
      continue;
    }
    if (KeyMatches(e, key)) {
      *found = static_cast<int>(s);
      return;
    }
  }
}

void KvSsd::ReleaseValue(uint64_t meta) {
  const uint64_t lpn = MetaLpn(meta);
  const uint32_t npages = MetaPages(meta);
  for (uint32_t i = 0; i < npages; ++i) {
    ftl_->MapErase(lpn + i);
    ftl_->FreeLpn(lpn + i);
  }
}

void KvSsd::WaitForFtl(uint64_t ready_at) {
  const uint64_t t0 = sim_->now();
  if (ready_at == 0) {
    pin_waiters_++;
    ftl_cv_.Wait(mu_);
    pin_waiters_--;
  } else {
    ftl_cv_.WaitFor(mu_, ready_at - t0);
  }
  if (Tracer* tracer = sim_->tracer()) {
    tracer->WaitEdgeEvent(WaitEdge::kFtlGc, t0, sim_->now());
  }
}

void KvSsd::UnpinPage(uint64_t ppn) {
  if (ftl_->Unpin(ppn) && pin_waiters_ > 0) {
    ftl_cv_.NotifyAll();
  }
}

// --- KV commands -----------------------------------------------------------

uint16_t KvSsd::ExecStore(std::span<const uint8_t> key, std::span<const uint8_t> value) {
  SimLockGuard lock(mu_);
  CCNVME_CHECK(attached_) << "KV command before Format/Attach";
  if (key.empty() || key.size() > kKvMaxKeyLen ||
      value.size() > config_.max_value_bytes) {
    return kKvStatusInvalidField;
  }
  int found = -1;
  int insert = -1;
  Probe(key, &found, &insert);
  if (found < 0 && insert < 0) {
    return kKvStatusCapacity;  // directory full
  }

  // 1. Data pages, out-of-place into the open erase block. The runs are
  // allocated under mu_ (GC may run inside AllocRun and is blamed on this
  // command via wait.ftl_gc) and programmed with mu_ released, the run's
  // block pinned so GC leaves it alone meanwhile.
  const uint32_t npages = static_cast<uint32_t>((value.size() + kPageBytes - 1) / kPageBytes);
  uint64_t lpn = 0;
  uint64_t ppn = 0;
  auto release_run = [&] {
    ftl_->DiscardRun(ppn, npages);
    for (uint32_t i = 0; i < npages; ++i) {
      ftl_->FreeLpn(lpn + i);
    }
  };
  if (npages > 0) {
    lpn = ftl_->AllocLpnRun(npages);
    if (lpn == kFtlUnmapped) {
      return kKvStatusCapacity;
    }
    uint64_t ready_at = 0;
    while ((ppn = ftl_->AllocRun(npages, &ready_at)) == kFtlBusy) {
      WaitForFtl(ready_at);
    }
    if (ppn == kFtlUnmapped) {
      for (uint32_t i = 0; i < npages; ++i) {
        ftl_->FreeLpn(lpn + i);
      }
      return kKvStatusCapacity;
    }
    ftl_->Pin(ppn);
    mu_.Unlock();
    uint32_t programmed = 0;
    for (; programmed < npages; ++programmed) {
      Buffer page(kPageBytes, 0);
      const size_t begin = static_cast<size_t>(programmed) * kPageBytes;
      const size_t len = std::min(kPageBytes, value.size() - begin);
      std::copy(value.begin() + begin, value.begin() + begin + len, page.begin());
      if (!FlashWrite(ppn + programmed, page)) {
        break;
      }
    }
    mu_.Lock();
    for (uint32_t i = 0; i < programmed; ++i) {
      ftl_->CountHostPage();
    }
    if (programmed < npages) {
      UnpinPage(ppn);
      release_run();
      return kKvStatusMediaError;
    }
  }
  // The commit below cannot be retried once it starts, and its map
  // writebacks must not wait for an erase under mu_: wait for their room
  // first, with mu_ released. The run stays pinned meanwhile, since its
  // pages are not mapped yet.
  for (uint64_t ready_at; (ready_at = ftl_->CommitReadyAt()) > sim_->now();) {
    WaitForFtl(ready_at);
  }
  if (npages > 0) {
    UnpinPage(ppn);
  }

  // Probe again: while the pages programmed, another key may have taken
  // this key's insert slot, or another command may have stored or deleted
  // this key.
  Probe(key, &found, &insert);
  const int slot = found >= 0 ? found : insert;
  if (slot < 0) {
    if (npages > 0) {
      release_run();
    }
    return kKvStatusCapacity;  // directory filled up meanwhile
  }
  const uint64_t old_meta = found >= 0 ? dir_[slot].meta : 0;

  // 2. Stage the L2P updates (volatile until checkpoint or replay).
  for (uint32_t i = 0; i < npages; ++i) {
    ftl_->MapInstall(lpn + i, ppn + i);
  }

  // Ring-wrap guard: the shadow for seq would overwrite a not-yet-dead
  // entry; checkpoint the map first so every older shadow is redundant.
  const uint64_t seq = last_seq_ + 1;
  if (seq - checkpoint_seq_ > config_.shadow_slots) {
    ftl_->CheckpointMap();
  }
  last_seq_ = seq;

  // 3. ARM: key bytes (first insert into this slot) + shadow, then fence.
  std::array<uint8_t, kKvMaxKeyLen> padded{};
  std::copy(key.begin(), key.end(), padded.begin());
  const bool need_key_write = found < 0 || dir_[slot].key != padded;
  bool shadow_armed = false;
  if (!config_.test_skip_ftl_shadow_commit) {
    if (need_key_write) {
      PmrStoreWc(layout_.dir_off + static_cast<size_t>(slot) * kKvDirSlotBytes, padded);
    }
    Buffer rec(kKvShadowBytes, 0);
    PutU64(rec, 0, seq);
    PutU64(rec, 8, lpn);
    PutU32(rec, 16, npages);
    PutU32(rec, 20, static_cast<uint32_t>(ppn));
    PutU32(rec, 24, static_cast<uint32_t>(slot));
    PutU32(rec, 28, ShadowCrc(std::span<const uint8_t>(rec.data(), 28)));
    PmrStoreWc(layout_.shadow_off +
                   static_cast<size_t>(seq % config_.shadow_slots) * kKvShadowBytes,
               rec);
    PmrFence();  // ARM: shadow + key bytes durable from here on
    shadow_armed = true;
  } else if (need_key_write) {
    // Injected bug: the key bytes still go in (they ride the commit
    // fence), but the shadow map-entry and its fence are skipped.
    PmrStoreWc(layout_.dir_off + static_cast<size_t>(slot) * kKvDirSlotBytes, padded);
  }

  // 4. COMMIT: the single 8-byte meta word is the atomicity point.
  const uint64_t meta = PackMeta(lpn, static_cast<uint32_t>(value.size()),
                                 static_cast<uint32_t>(key.size()));
  Buffer word(8);
  PutU64(word, 0, meta);
  PmrStoreWc(layout_.dir_off + static_cast<size_t>(slot) * kKvDirSlotBytes + 24, word);
  if (Metrics* m = sim_->metrics()) {
    m->monitors().OnKvCommit(Fnv1a(key), /*data_durable=*/true, shadow_armed);
  }
  PmrFence();  // COMMIT

  if (found < 0) {
    live_keys_++;
  }
  dir_[slot].key = padded;
  dir_[slot].meta = meta;
  if (MetaLive(old_meta)) {
    ReleaseValue(old_meta);  // the overwritten value's LPNs are dead now
  }
  stores_++;
  PublishFtlMetrics();
  return 0;
}

uint16_t KvSsd::ExecRetrieve(std::span<const uint8_t> key, Buffer* out,
                             uint32_t* result) {
  SimLockGuard lock(mu_);
  CCNVME_CHECK(attached_) << "KV command before Format/Attach";
  if (key.empty() || key.size() > kKvMaxKeyLen) {
    return kKvStatusInvalidField;
  }
  int found = -1;
  int insert = -1;
  Probe(key, &found, &insert);
  if (found < 0) {
    return kKvStatusNotFound;
  }
  const uint64_t meta = dir_[found].meta;
  const uint32_t value_len = MetaValueLen(meta);
  const uint64_t lpn = MetaLpn(meta);
  const uint32_t npages = MetaPages(meta);
  std::vector<uint64_t> ppns(npages);
  for (uint32_t i = 0; i < npages; ++i) {
    ppns[i] = ftl_->MapLookup(lpn + i);
    if (ppns[i] == kFtlUnmapped) {
      return kKvStatusInternal;  // live entry with no mapping: corrupt state
    }
  }
  // Read with mu_ released; the pins keep GC off these blocks meanwhile, so
  // a concurrent overwrite or delete leaves the pages readable.
  for (uint64_t ppn : ppns) {
    ftl_->Pin(ppn);
  }
  mu_.Unlock();
  out->assign(value_len, 0);
  bool ok = true;
  for (uint32_t i = 0; i < npages && ok; ++i) {
    Buffer page;
    ok = FlashRead(ppns[i], &page);
    if (ok) {
      const size_t begin = static_cast<size_t>(i) * kPageBytes;
      const size_t len = std::min(kPageBytes, static_cast<uint64_t>(value_len) - begin);
      std::copy(page.begin(), page.begin() + len, out->begin() + begin);
    }
  }
  mu_.Lock();
  for (uint64_t ppn : ppns) {
    UnpinPage(ppn);
  }
  if (!ok) {
    return kKvStatusMediaError;
  }
  *result = value_len;
  retrieves_++;
  return 0;
}

uint16_t KvSsd::ExecDelete(std::span<const uint8_t> key) {
  SimLockGuard lock(mu_);
  CCNVME_CHECK(attached_) << "KV command before Format/Attach";
  if (key.empty() || key.size() > kKvMaxKeyLen) {
    return kKvStatusInvalidField;
  }
  int found = -1;
  int insert = -1;
  Probe(key, &found, &insert);
  if (found < 0) {
    return kKvStatusNotFound;
  }
  const uint64_t old_meta = dir_[found].meta;
  // One fenced 8-byte tombstone store: deletes are atomic the same way
  // stores are, and need no shadow (recovery never maps a tombstone).
  Buffer word(8);
  PutU64(word, 0, kMetaTomb);
  PmrStoreWc(layout_.dir_off + static_cast<size_t>(found) * kKvDirSlotBytes + 24, word);
  PmrFence();
  dir_[found].meta = kMetaTomb;
  live_keys_--;
  ReleaseValue(old_meta);
  deletes_++;
  PublishFtlMetrics();
  return 0;
}

uint16_t KvSsd::ExecExist(std::span<const uint8_t> key) {
  SimLockGuard lock(mu_);
  CCNVME_CHECK(attached_) << "KV command before Format/Attach";
  if (key.empty() || key.size() > kKvMaxKeyLen) {
    return kKvStatusInvalidField;
  }
  int found = -1;
  int insert = -1;
  Probe(key, &found, &insert);
  return found >= 0 ? 0 : kKvStatusNotFound;
}

uint16_t KvSsd::ExecList(uint32_t start_slot, uint32_t max_keys, Buffer* out,
                         uint32_t* result) {
  SimLockGuard lock(mu_);
  CCNVME_CHECK(attached_) << "KV command before Format/Attach";
  Buffer body;
  uint32_t count = 0;
  uint32_t s = start_slot;
  for (; s < config_.dir_slots && count < max_keys; ++s) {
    const DirEnt& e = dir_[s];
    if (!MetaLive(e.meta)) {
      continue;
    }
    const uint32_t key_len = MetaKeyLen(e.meta);
    body.push_back(static_cast<uint8_t>(key_len));
    body.insert(body.end(), e.key.begin(), e.key.begin() + key_len);
    count++;
  }
  const uint32_t next = s >= config_.dir_slots ? 0xFFFFFFFFu : s;
  out->assign(8 + body.size(), 0);
  PutU32(*out, 0, next);
  PutU32(*out, 4, count);
  std::copy(body.begin(), body.end(), out->begin() + 8);
  *result = count;
  return 0;
}

}  // namespace ccnvme
