#include "src/nvme/kv_ssd.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/metrics/metrics.h"
#include "src/trace/tracer.h"

namespace ccnvme {

namespace {
constexpr uint64_t kPageBytes = 4096;
constexpr size_t kPmrLineBytes = 64;
constexpr size_t kPmrWcChunkBytes = 64 * kMmioWordSize;
// Controller-internal PMR costs: one 64-byte line stored or read, and the
// persist fence.
constexpr uint64_t kPmrStoreNs = 100;
constexpr uint64_t kPmrFenceNs = 250;
static_assert(kKvMaxValueBytes < (1u << 20), "meta word packs 20 length bits");

uint64_t PmrLines(size_t bytes) { return (bytes + kPmrLineBytes - 1) / kPmrLineBytes; }
}  // namespace

KvPmrLayout KvSuperblock::Layout(size_t pmr_size) const {
  KvPmrLayout l;
  l.num_segments = static_cast<uint32_t>(
      (total_lpns + map_entries_per_segment - 1) / map_entries_per_segment);
  l.sb_off = pmr_size - kKvSuperblockBytes;
  l.gtd_off = l.sb_off - static_cast<size_t>(l.num_segments) * 8;
  l.shadow_off = l.gtd_off - static_cast<size_t>(shadow_slots) * kKvShadowBytes;
  l.dir_off = l.shadow_off - static_cast<size_t>(dir_slots) * kKvDirSlotBytes;
  l.frame_off = l.dir_off - kKvFrames * (kKvFrameHeaderBytes + kKvFrameBytes);
  return l;
}

// --- on-PMR records --------------------------------------------------------

KvSuperblock KvSuperblock::ForConfig(const KvSsdConfig& config) {
  KvSuperblock sb;
  sb.dir_slots = config.dir_slots;
  sb.shadow_slots = config.shadow_slots;
  sb.flash_pages = config.flash_pages;
  sb.total_lpns = config.total_lpns;
  sb.pages_per_block = config.pages_per_block;
  sb.map_entries_per_segment = kPageBytes / 8;
  sb.map_cache_segments = config.map_cache_segments;
  sb.gc_free_blocks_low = config.gc_free_blocks_low;
  return sb;
}

uint64_t KvSuperblock::GeometryHash() const {
  Buffer geo(48);
  PutU64(geo, 0, dir_slots);
  PutU64(geo, 8, shadow_slots);
  PutU64(geo, 16, flash_pages);
  PutU64(geo, 24, total_lpns);
  PutU64(geo, 32, pages_per_block);
  PutU64(geo, 40, map_entries_per_segment);
  return Fnv1a(geo);
}

namespace {
// Where the superblock stores each field. Bytes 16..24 hold the geometry
// hash; 96..128 are unused.
constexpr std::pair<size_t, uint64_t KvSuperblock::*> kSbWords[] = {
    {KvSuperblock::kCheckpointSeqOffset, &KvSuperblock::checkpoint_seq},
    {KvSuperblock::kStatsOffset, &KvSuperblock::host_pages},
    {KvSuperblock::kStatsOffset + 8, &KvSuperblock::media_pages},
    {KvSuperblock::kStatsOffset + 16, &KvSuperblock::gc_runs},
    {KvSuperblock::kStatsOffset + 24, &KvSuperblock::gc_migrated_pages},
    {64, &KvSuperblock::flash_pages},
    {72, &KvSuperblock::total_lpns}};
constexpr std::pair<size_t, uint32_t KvSuperblock::*> kSbHalfWords[] = {
    {56, &KvSuperblock::dir_slots},       {60, &KvSuperblock::shadow_slots},
    {80, &KvSuperblock::pages_per_block}, {84, &KvSuperblock::map_entries_per_segment},
    {88, &KvSuperblock::map_cache_segments}, {92, &KvSuperblock::gc_free_blocks_low}};
}  // namespace

void KvSuperblock::Serialize(std::span<uint8_t> out) const {
  CCNVME_CHECK_EQ(out.size(), kKvSuperblockBytes);
  std::fill(out.begin(), out.end(), 0);
  PutU32(out, 0, kKvSsdMagic);
  PutU32(out, 4, kKvSsdVersion);
  PutU64(out, 16, GeometryHash());
  for (const auto& [offset, field] : kSbWords) {
    PutU64(out, offset, this->*field);
  }
  for (const auto& [offset, field] : kSbHalfWords) {
    PutU32(out, offset, this->*field);
  }
}

Result<KvSuperblock> KvSuperblock::Parse(std::span<const uint8_t> in) {
  if (in.size() < kKvSuperblockBytes || GetU32(in, 0) != kKvSsdMagic ||
      GetU32(in, 4) != kKvSsdVersion) {
    return Corruption("no KV superblock (device not formatted as a KV-SSD?)");
  }
  KvSuperblock sb;
  for (const auto& [offset, field] : kSbWords) {
    sb.*field = GetU64(in, offset);
  }
  for (const auto& [offset, field] : kSbHalfWords) {
    sb.*field = GetU32(in, offset);
  }
  if (sb.GeometryHash() != GetU64(in, 16)) {
    return Corruption("superblock geometry hash mismatch (torn superblock?)");
  }
  // Beyond the hash: a geometry no KV-SSD (and no FTL) can have.
  if (sb.dir_slots == 0 || sb.shadow_slots < 2 || sb.total_lpns > (1ull << 26) ||
      sb.pages_per_block == 0 ||
      sb.flash_pages % sb.pages_per_block != 0 ||
      sb.flash_pages / sb.pages_per_block <= sb.gc_free_blocks_low + 1ull ||
      sb.map_entries_per_segment * 8ull != kPageBytes || sb.map_cache_segments == 0) {
    return Corruption("superblock geometry no KV-SSD can have");
  }
  return sb;
}

void KvShadowEntry::Serialize(std::span<uint8_t> out) const {
  CCNVME_CHECK_EQ(out.size(), kKvShadowBytes);
  PutU64(out, 0, seq);
  PutU64(out, 8, lpn);
  PutU32(out, 16, npages);
  PutU32(out, 20, ppn);
  PutU32(out, 24, slot);
  PutU32(out, 28, static_cast<uint32_t>(Fnv1a(out.first(28)) & 0xFFFFFFFF));
}

Result<KvShadowEntry> KvShadowEntry::Parse(std::span<const uint8_t> in) {
  if (in.size() < kKvShadowBytes ||
      GetU32(in, 28) != static_cast<uint32_t>(Fnv1a(in.first(28)) & 0xFFFFFFFF)) {
    return Corruption("shadow entry checksum mismatch");
  }
  KvShadowEntry sh;
  sh.seq = GetU64(in, 0);
  sh.lpn = GetU64(in, 8);
  sh.npages = GetU32(in, 16);
  sh.ppn = GetU32(in, 20);
  sh.slot = GetU32(in, 24);
  return sh;
}

KvShadowChain ReplayShadowChain(const PageImage& pmr, const KvPmrLayout& layout,
                                const KvSuperblock& sb, Ftl& ftl) {
  KvShadowChain chain;
  Buffer raw(kKvShadowBytes);
  for (uint32_t s = 0; s < sb.shadow_slots; ++s) {
    pmr.Read(layout.ShadowOff(s), raw);
    const Result<KvShadowEntry> sh = KvShadowEntry::Parse(raw);
    if (!sh.ok()) {
      chain.torn += GetU64(raw, 0) != 0 ? 1 : 0;
      continue;
    }
    if (sh->seq > sb.checkpoint_seq && sh->seq <= sb.checkpoint_seq + sb.shadow_slots) {
      chain.entries.push_back({s, *sh});
    }
  }
  std::sort(chain.entries.begin(), chain.entries.end(),
            [](const KvShadowChain::Entry& a, const KvShadowChain::Entry& b) {
              return a.shadow.seq < b.shadow.seq;
            });
  chain.last_seq = sb.checkpoint_seq;
  for (const KvShadowChain::Entry& e : chain.entries) {
    const KvShadowEntry& sh = e.shadow;
    if (sh.seq != chain.last_seq + 1) {
      break;
    }
    for (uint32_t i = 0; i < sh.npages && sh.lpn + i < sb.total_lpns; ++i) {
      ftl.MapSetForReplay(sh.lpn + i, sh.ppn == kKvShadowUnmapped ? kFtlUnmapped : sh.ppn + i);
    }
    chain.last_seq = sh.seq;
    chain.replayed++;
  }
  return chain;
}

void KvDirEntry::Serialize(std::span<uint8_t> out) const {
  CCNVME_CHECK_EQ(out.size(), kKvDirSlotBytes);
  std::fill(out.begin(), out.end(), 0);
  std::copy(key.begin(), key.end(), out.begin());
  PutU64(out, kMetaOffset, meta);
}

KvDirEntry KvDirEntry::Parse(std::span<const uint8_t> in) {
  KvDirEntry e;
  std::copy(in.begin(), in.begin() + kKvMaxKeyLen, e.key.begin());
  e.meta = GetU64(in, kMetaOffset);
  return e;
}

KvSsd::KvSsd(Simulator* sim, SsdModel* ssd, Pmr* pmr, const KvSsdConfig& config)
    : sim_(sim),
      ssd_(ssd),
      pmr_(pmr),
      config_(config),
      mu_(sim),
      ftl_cv_(sim),
      frame_cv_(sim) {
  CCNVME_CHECK(config_.dir_slots > 0 && config_.shadow_slots > 1);
  CCNVME_CHECK(config_.total_lpns <= (1ull << 26)) << "meta word packs 26 LPN bits";
  const KvSuperblock sb = KvSuperblock::ForConfig(config_);
  layout_ = sb.Layout(pmr_->size());
  max_value_bytes_ = sb.MaxValueBytes();
  // The ccNVMe P-SQ area grows from the bottom of the PMR; keep clear of it.
  CCNVME_CHECK(layout_.frame_off >= 64 * 1024)
      << "KV metadata would overrun the PMR (shrink dir_slots or the geometry)";
  dir_.resize(config_.dir_slots);
}

KvSsd::~KvSsd() = default;

// --- meta word -------------------------------------------------------------

uint64_t KvSsd::PackMeta(uint64_t lpn, uint32_t value_len, uint32_t key_len,
                         uint32_t offset) {
  return kMetaUsed | (lpn & 0x3FFFFFF) | (static_cast<uint64_t>(value_len & 0xFFFFF) << 26) |
         (static_cast<uint64_t>(key_len & 0x1F) << 46) |
         (static_cast<uint64_t>((offset / kKvPackAlign) & 0xFF) << 51);
}

std::array<KvSsd::RecoveredFrame, kKvFrames> KvSsd::RecoverFrames(
    const PageImage& pmr, const KvPmrLayout& layout, Ftl& ftl, std::vector<std::string>* errors) {
  std::array<RecoveredFrame, kKvFrames> frames{};
  for (uint32_t f = 0; f < kKvFrames; ++f) {
    const uint64_t header = pmr.ReadU64(layout.FrameHeaderOff(f));
    if ((header & kFrameUsed) == 0) {
      continue;
    }
    const uint64_t lpn = FrameLpn(header);
    const bool staged_twice = std::any_of(frames.begin(), frames.begin() + f, [&](const auto& g) {
      return g.fate == FrameFate::kStaged && g.lpn == lpn;
    });
    if (lpn >= ftl.config().total_lpns || staged_twice) {
      errors->push_back("staging frame " + std::to_string(f) + " names lpn " +
                        std::to_string(lpn) + " (beyond the logical space or staged twice)");
      continue;
    }
    frames[f] = {ftl.MapLookup(lpn) != kFtlUnmapped ? FrameFate::kFlushed : FrameFate::kStaged,
                 lpn};
  }
  return frames;
}

KvSsd::Directory KvSsd::WalkDirectory(const PageImage& pmr, const KvPmrLayout& layout,
                                      const KvSuperblock& sb,
                                      const std::array<RecoveredFrame, kKvFrames>& frames,
                                      Ftl& ftl, std::vector<std::string>* errors) {
  Directory dir;
  dir.entries.resize(sb.dir_slots);
  dir.claimed.assign(sb.total_lpns, 0);
  for (uint32_t f = 0; f < kKvFrames; ++f) {
    if (frames[f].fate == FrameFate::kStaged) {
      dir.packed_refs[frames[f].lpn] = 1;
    }
  }
  Buffer raw(kKvDirSlotBytes);
  for (uint32_t s = 0; s < sb.dir_slots; ++s) {
    pmr.Read(layout.DirSlotOff(s), raw);
    KvDirEntry& e = dir.entries[s] = KvDirEntry::Parse(raw);
    if ((e.meta & kMetaTomb) != 0) {
      dir.tombstones++;
      continue;
    }
    if (!MetaLive(e.meta)) {
      continue;
    }
    const uint32_t key_len = MetaKeyLen(e.meta);
    const uint64_t lpn = MetaLpn(e.meta);
    const uint32_t npages = MetaPages(e.meta);
    if (key_len < 1 || key_len > kKvMaxKeyLen || MetaValueLen(e.meta) > sb.MaxValueBytes() ||
        lpn + npages > sb.total_lpns) {
      errors->push_back("directory slot " + std::to_string(s) + " has out-of-range fields");
      e.meta = kMetaTomb;  // dead: no command may read or release its LPNs
      continue;
    }
    dir.live_keys++;
    dir.live_value_bytes += MetaValueLen(e.meta);
    if (MetaPacked(e.meta)) {
      // An entry running past its page is still counted below, so deleting
      // or overwriting it releases the shared page like any other.
      const uint32_t end = PackedEnd(e.meta);
      if (end > kKvFrameBytes) {
        errors->push_back("directory slot " + std::to_string(s) +
                          " holds a packed entry that runs past its page (ends at byte " +
                          std::to_string(end) + ")");
      }
      dir.claimed[lpn] = 1;
      for (uint32_t f = 0; f < kKvFrames; ++f) {
        if (frames[f].fate == FrameFate::kStaged && frames[f].lpn == lpn) {
          dir.frame_fill[f] = std::max(dir.frame_fill[f], PackedBytes(end));
          dir.frame_values[f]++;
        }
      }
      if (dir.packed_refs[lpn]++ > 0) {
        continue;  // a shared page already claimed, or a staged LPN
      }
    }
    for (uint32_t i = 0; i < npages; ++i) {
      dir.claimed[lpn + i] = 1;
      const uint64_t ppn = ftl.MapLookup(lpn + i);
      if (ppn == kFtlUnmapped || ppn >= sb.flash_pages) {
        errors->push_back("directory slot " + std::to_string(s) + " covers unmapped lpn " +
                          std::to_string(lpn + i) +
                          " (committed meta word without a durable shadow map-entry)");
        continue;
      }
      if (!ftl.MarkLive(lpn + i, ppn)) {
        errors->push_back("physical page " + std::to_string(ppn) +
                          " claimed by two live mappings");
      }
    }
  }
  return dir;
}

// --- recorded PMR traffic --------------------------------------------------

void KvSsd::PmrStoreWc(size_t offset, std::span<const uint8_t> data) {
  pmr_->Write(offset, data);
  Simulator::Sleep(kPmrStoreNs * PmrLines(data.size()));
  for (size_t pos = 0; recorder_ && pos < data.size(); pos += kPmrWcChunkBytes) {
    const std::span<const uint8_t> chunk =
        data.subspan(pos, std::min(kPmrWcChunkBytes, data.size() - pos));
    BioEvent ev;
    ev.op = BioOp::kPmrWrite;
    ev.lba = offset + pos;
    ev.flags = kBioPmrWc;
    ev.qid = kFtlQid;
    ev.device = device_id_;
    ev.data.assign(chunk.begin(), chunk.end());
    recorder_(ev);
  }
}

void KvSsd::PmrStoreUncached(size_t offset, std::span<const uint8_t> data) {
  pmr_->Write(offset, data);
  Simulator::Sleep(kPmrStoreNs);
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
  Simulator::Sleep(kPmrFenceNs);
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
  PmrStoreUncached(layout_.GtdOff(seg), word);
}

uint64_t KvSsd::LoadGtd(uint32_t seg) { return pmr_->image().ReadU64(layout_.GtdOff(seg)); }

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
  PmrStoreUncached(layout_.sb_off + KvSuperblock::kCheckpointSeqOffset, word);
  // Stats mirror for offline tools; not correctness-critical.
  Buffer stats(32);
  PutU64(stats, 0, ftl_ == nullptr ? 0 : ftl_->host_pages_written());
  PutU64(stats, 8, ftl_ == nullptr ? 0 : ftl_->media_pages_written());
  PutU64(stats, 16, ftl_ == nullptr ? 0 : ftl_->gc_runs());
  PutU64(stats, 24, ftl_ == nullptr ? 0 : ftl_->gc_migrated_pages());
  pmr_->Write(layout_.sb_off + KvSuperblock::kStatsOffset, stats);
}

// --- format / attach -------------------------------------------------------

Status KvSsd::Format() {
  SimLockGuard lock(mu_);
  // Direct (unrecorded) PMR initialization, the mkfs analogue: zero the
  // staging frames, the directory and the shadow ring, set every GTD root
  // to "none".
  Buffer zeros(layout_.gtd_off - layout_.frame_off, 0);
  pmr_->Write(layout_.frame_off, zeros);
  Buffer none(static_cast<size_t>(layout_.num_segments) * 8, 0xFF);
  pmr_->Write(layout_.gtd_off, none);
  checkpoint_seq_ = 0;
  last_seq_ = 0;
  live_keys_ = 0;
  Buffer sb(kKvSuperblockBytes);
  KvSuperblock::ForConfig(config_).Serialize(sb);
  pmr_->Write(layout_.sb_off, sb);
  dir_.assign(config_.dir_slots, KvDirEntry{});
  frames_ = {};
  open_ = -1;
  packed_refs_.clear();
  attach_errors_.clear();
  ftl_ = std::make_unique<Ftl>(sim_, this, KvSuperblock::ForConfig(config_).ToFtlConfig());
  attached_ = true;
  return OkStatus();
}

Status KvSsd::Attach() {
  SimLockGuard lock(mu_);
  ScopedSpan span(sim_->tracer(), TracePoint::kFtlRecover);
  Buffer raw(kKvSuperblockBytes);
  pmr_->Read(layout_.sb_off, raw);
  const Result<KvSuperblock> sb = KvSuperblock::Parse(raw);
  if (!sb.ok()) {
    return IoError("kv-ssd: " + sb.status().message());
  }
  if (sb->GeometryHash() != KvSuperblock::ForConfig(config_).GeometryHash()) {
    return IoError("kv-ssd: superblock geometry does not match the config");
  }
  checkpoint_seq_ = sb->checkpoint_seq;
  attach_errors_.clear();
  ftl_ = std::make_unique<Ftl>(sim_, this, KvSuperblock::ForConfig(config_).ToFtlConfig());
  ftl_->BeginAttach();
  ftl_->AttachLoadGtd();

  last_seq_ = ReplayShadowChain(pmr_->image(), layout_, *sb, *ftl_).last_seq;

  // Staging frames. One whose LPN the map now has was flushed before the
  // cut (its shadow is durable, its header clear was not): its header is
  // cleared so no later frame can share the LPN with it.
  std::vector<std::string> errors;
  const std::array<RecoveredFrame, kKvFrames> recovered =
      RecoverFrames(pmr_->image(), layout_, *ftl_, &errors);
  frames_ = {};
  open_ = -1;
  for (uint32_t f = 0; f < kKvFrames; ++f) {
    const uint64_t lpn = recovered[f].lpn;
    if (recovered[f].fate == FrameFate::kFlushed) {
      PmrStoreUncached(layout_.FrameHeaderOff(f), Buffer(8, 0));
    } else if (recovered[f].fate == FrameFate::kStaged) {
      frames_[f] = Frame{FrameState::kSealed, lpn, 0};
      ftl_->ClaimLpn(lpn);
    }
  }

  // Directory walk: mirror the slots into RAM and rebuild physical-page
  // liveness.
  Directory dir = WalkDirectory(pmr_->image(), layout_, *sb, recovered, *ftl_, &errors);
  for (const std::string& error : errors) {
    attach_errors_.push_back("kv-ssd: " + error);
  }
  dir_ = std::move(dir.entries);
  live_keys_ = dir.live_keys;
  packed_refs_ = std::move(dir.packed_refs);
  for (uint32_t f = 0; f < kKvFrames; ++f) {
    frames_[f].fill = dir.frame_fill[f];
  }

  // Orphan sweep: drop mappings no live entry claims — the residue of
  // stores whose commit word never landed (a replayed shadow of an aborted
  // store, or staged entries that rode a mid-store map checkpoint). Their
  // data pages stay unclaimed and fall back to the free/stale pools below.
  for (uint64_t lpn = 0; lpn < config_.total_lpns; ++lpn) {
    if (dir.claimed[lpn] == 0) {
      ftl_->MapClearUnclaimed(lpn);
    }
  }
  ftl_->FinishAttach();

  // The staged frame with more room stays open; if both are staged (a cut
  // during a flush), the other is flushed by the Store that next needs it.
  for (uint32_t f = 0; f < kKvFrames; ++f) {
    if (frames_[f].state == FrameState::kSealed &&
        (open_ < 0 || frames_[f].fill < frames_[open_].fill)) {
      open_ = static_cast<int>(f);
    }
  }
  if (open_ >= 0) {
    frames_[open_].state = FrameState::kOpen;
  }
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

bool KvSsd::KeyMatches(const KvDirEntry& e, std::span<const uint8_t> key) const {
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
    const KvDirEntry& e = dir_[s];
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
  if (MetaPacked(meta)) {
    DropPackedRef(MetaLpn(meta));
    return;
  }
  const uint64_t lpn = MetaLpn(meta);
  const uint32_t npages = MetaPages(meta);
  for (uint32_t i = 0; i < npages; ++i) {
    ftl_->MapErase(lpn + i);
    ftl_->FreeLpn(lpn + i);
  }
}

void KvSsd::DropPackedRef(uint64_t lpn) {
  auto it = packed_refs_.find(lpn);
  CCNVME_CHECK(it != packed_refs_.end()) << "packed lpn " << lpn << " has no references";
  if (--it->second == 0) {
    packed_refs_.erase(it);
    ftl_->MapErase(lpn);
    ftl_->FreeLpn(lpn);
  }
}

int KvSsd::StagedFrame(uint64_t lpn) const {
  for (uint32_t f = 0; f < kKvFrames; ++f) {
    if (frames_[f].state != FrameState::kFree && frames_[f].lpn == lpn) {
      return static_cast<int>(f);
    }
  }
  return -1;
}

uint64_t KvSsd::NextShadowSeq() {
  // Ring-wrap guard: the shadow for seq would overwrite a not-yet-dead
  // entry; checkpoint the map first so every older shadow is redundant.
  const uint64_t seq = last_seq_ + 1;
  if (seq - checkpoint_seq_ > config_.shadow_slots) {
    ftl_->CheckpointMap();
  }
  last_seq_ = seq;
  return seq;
}

void KvSsd::StoreShadow(uint64_t seq, uint64_t lpn, uint32_t npages, uint64_t ppn,
                        uint32_t slot) {
  Buffer rec(kKvShadowBytes);
  KvShadowEntry{seq, lpn, npages, static_cast<uint32_t>(ppn), slot}.Serialize(rec);
  PmrStoreWc(layout_.ShadowOff(static_cast<uint32_t>(seq % config_.shadow_slots)), rec);
}

void KvSsd::StoreKey(uint32_t slot, bool found, std::span<const uint8_t> key) {
  std::array<uint8_t, kKvMaxKeyLen> padded{};
  std::copy(key.begin(), key.end(), padded.begin());
  if (!found || dir_[slot].key != padded) {
    PmrStoreWc(layout_.DirSlotOff(slot), padded);
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

void KvSsd::WaitForFlush() {
  const uint64_t t0 = sim_->now();
  frame_cv_.Wait(mu_);
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
  if (key.empty() || key.size() > kKvMaxKeyLen || value.size() > max_value_bytes_) {
    return kKvStatusInvalidField;
  }
  int found = -1;
  int insert = -1;
  Probe(key, &found, &insert);
  if (found < 0 && insert < 0) {
    return kKvStatusCapacity;  // directory full
  }
  if (!value.empty() && value.size() < kPageBytes) {
    return StorePacked(key, value);
  }

  // 1. Data pages, out-of-place into the open erase block.
  const uint32_t npages = static_cast<uint32_t>((value.size() + kPageBytes - 1) / kPageBytes);
  uint64_t lpn = 0;
  if (npages > 0 && (lpn = ftl_->AllocLpnRun(npages)) == kFtlUnmapped) {
    return kKvStatusCapacity;
  }
  auto free_lpns = [&] {
    for (uint32_t i = 0; i < npages; ++i) {
      ftl_->FreeLpn(lpn + i);
    }
  };
  uint64_t ppn = 0;
  if (const uint16_t status = ProgramRun(value, &ppn); status != 0) {
    free_lpns();
    return status;
  }

  // Probe again: while the pages programmed, another key may have taken
  // this key's insert slot, or another command may have stored or deleted
  // this key.
  Probe(key, &found, &insert);
  const int slot = found >= 0 ? found : insert;
  if (slot < 0) {
    if (npages > 0) {
      ftl_->DiscardRun(ppn, npages);
    }
    free_lpns();
    return kKvStatusCapacity;  // directory filled up meanwhile
  }

  // 2. Stage the L2P updates (volatile until checkpoint or replay).
  for (uint32_t i = 0; i < npages; ++i) {
    ftl_->MapInstall(lpn + i, ppn + i);
  }
  const uint64_t seq = NextShadowSeq();

  // 3. ARM: key bytes (first insert into this slot) + shadow, then fence.
  // The injected bug keeps the key bytes (they ride the commit fence) but
  // skips the shadow map-entry and its fence.
  StoreKey(static_cast<uint32_t>(slot), found >= 0, key);
  bool shadow_armed = false;
  if (!config_.test_skip_ftl_shadow_commit) {
    StoreShadow(seq, lpn, npages, ppn, static_cast<uint32_t>(slot));
    PmrFence();  // ARM: shadow + key bytes durable from here on
    shadow_armed = true;
  }

  // 4. COMMIT.
  Commit(static_cast<uint32_t>(slot), found >= 0, key,
         PackMeta(lpn, static_cast<uint32_t>(value.size()), static_cast<uint32_t>(key.size())),
         /*data_durable=*/true, shadow_armed);
  return 0;
}

uint16_t KvSsd::ProgramRun(std::span<const uint8_t> data, uint64_t* ppn) {
  const uint32_t npages = static_cast<uint32_t>((data.size() + kPageBytes - 1) / kPageBytes);
  if (npages > 0) {
    // GC may run inside AllocRun; it is blamed on this command via
    // wait.ftl_gc.
    uint64_t ready_at = 0;
    while ((*ppn = ftl_->AllocRun(npages, &ready_at)) == kFtlBusy) {
      WaitForFtl(ready_at);
    }
    if (*ppn == kFtlUnmapped) {
      return kKvStatusCapacity;
    }
    ftl_->Pin(*ppn);
    mu_.Unlock();
    uint32_t programmed = 0;
    for (; programmed < npages; ++programmed) {
      Buffer page(kPageBytes, 0);
      const size_t begin = static_cast<size_t>(programmed) * kPageBytes;
      const size_t len = std::min(kPageBytes, data.size() - begin);
      std::copy(data.begin() + begin, data.begin() + begin + len, page.begin());
      if (!FlashWrite(*ppn + programmed, page)) {
        break;
      }
    }
    mu_.Lock();
    for (uint32_t i = 0; i < programmed; ++i) {
      ftl_->CountHostPage();
    }
    if (programmed < npages) {
      UnpinPage(*ppn);
      ftl_->DiscardRun(*ppn, npages);
      return kKvStatusMediaError;
    }
  }
  // The commit that maps the run cannot be retried once it starts, and its
  // map writebacks must not wait for an erase under mu_: wait for their room
  // first, with mu_ released. The run stays pinned meanwhile, since its
  // pages are not mapped yet.
  for (uint64_t ready_at; (ready_at = ftl_->CommitReadyAt()) > sim_->now();) {
    WaitForFtl(ready_at);
  }
  if (npages > 0) {
    UnpinPage(*ppn);
  }
  return 0;
}

void KvSsd::Commit(uint32_t slot, bool found, std::span<const uint8_t> key, uint64_t meta,
                   bool data_durable, bool shadow_armed) {
  // The single 8-byte meta word is the atomicity point.
  const uint64_t old_meta = found ? dir_[slot].meta : 0;
  Buffer word(8);
  PutU64(word, 0, meta);
  PmrStoreWc(layout_.DirSlotOff(slot) + KvDirEntry::kMetaOffset, word);
  if (Metrics* m = sim_->metrics()) {
    m->monitors().OnKvCommit(Fnv1a(key), data_durable, shadow_armed);
  }
  PmrFence();  // COMMIT

  if (!found) {
    live_keys_++;
  }
  std::fill(dir_[slot].key.begin(), dir_[slot].key.end(), 0);
  std::copy(key.begin(), key.end(), dir_[slot].key.begin());
  dir_[slot].meta = meta;
  if (MetaLive(old_meta)) {
    ReleaseValue(old_meta);  // the overwritten value's LPNs are dead now
  }
  stores_++;
  PublishFtlMetrics();
}

uint16_t KvSsd::StorePacked(std::span<const uint8_t> key, std::span<const uint8_t> value) {
  // 1. A frame with room: the open one if the value fits, else the next,
  // which must be free. Wait, unlocked, while another Store flushes it;
  // flush it here if a failed flush or a recovery left it sealed. The
  // commit cannot be retried once it starts, and retiring the overwritten
  // value may write the map back, so also wait, unlocked, until that needs
  // no erase (as the unpacked path does).
  auto needs_next_frame = [&] {
    return open_ < 0 || frames_[open_].fill + value.size() > kKvFrameBytes;
  };
  for (;;) {
    if (needs_next_frame()) {
      const uint32_t next = open_ < 0 ? 0 : 1 - open_;
      if (frames_[next].state == FrameState::kFlushing) {
        WaitForFlush();
        continue;
      }
      if (frames_[next].state == FrameState::kSealed) {
        frames_[next].state = FrameState::kFlushing;
        if (!FlushFrame(next)) {
          return kKvStatusCapacity;
        }
        continue;
      }
    }
    const uint64_t ready_at = ftl_->CommitReadyAt();
    if (ready_at <= sim_->now()) {
      break;
    }
    WaitForFtl(ready_at);
  }
  int sealed = -1;
  if (needs_next_frame()) {
    const uint64_t lpn = ftl_->AllocLpnRun(1);
    if (lpn == kFtlUnmapped) {
      return kKvStatusCapacity;
    }
    if (open_ >= 0) {
      sealed = open_;
      frames_[sealed].state = FrameState::kFlushing;  // by this Store, below
    }
    open_ = open_ < 0 ? 0 : 1 - open_;
    frames_[open_] = Frame{FrameState::kOpen, lpn, 0};
    packed_refs_[lpn] = 1;  // the frame's own reference, until it flushes
    const uint64_t seq = NextShadowSeq();
    Buffer header(8);
    PutU64(header, 0, kFrameUsed | lpn);
    PmrStoreWc(layout_.FrameHeaderOff(open_), header);
    StoreShadow(seq, lpn, 1, kKvShadowUnmapped, kKvShadowNoSlot);
  }
  const uint32_t f = static_cast<uint32_t>(open_);
  const uint64_t lpn = frames_[f].lpn;
  const uint32_t offset = frames_[f].fill;
  frames_[f].fill += PackedBytes(value.size());
  frames_[f].copying++;
  packed_refs_[lpn]++;

  // 2. STAGE: copy the value bytes into the range just taken with mu_
  // released (a flush of the frame waits for the copy), then, under mu_,
  // the key bytes on first insert into the slot, and a fence. A frame just
  // opened has its header and unmap shadow ride the same fence.
  mu_.Unlock();
  PmrStoreWc(layout_.FrameDataOff(f) + offset, value);
  mu_.Lock();
  if (--frames_[f].copying == 0 && frames_[f].state != FrameState::kOpen) {
    frame_cv_.NotifyAll();  // sealed meanwhile: its flush waits for the copies
  }
  // Probe now: the waits above released mu_, and another key may have
  // taken this key's insert slot.
  int found = -1;
  int insert = -1;
  Probe(key, &found, &insert);
  const int slot = found >= 0 ? found : insert;
  uint16_t status = 0;
  if (slot < 0) {
    DropPackedRef(lpn);
    status = kKvStatusCapacity;  // directory filled up meanwhile
  } else {
    StoreKey(static_cast<uint32_t>(slot), found >= 0, key);
    if (!config_.test_skip_ftl_shadow_commit) {
      PmrFence();
    }
    // 3. COMMIT.
    Commit(static_cast<uint32_t>(slot), found >= 0, key,
           PackMeta(lpn, static_cast<uint32_t>(value.size()), static_cast<uint32_t>(key.size()),
                    offset),
           /*data_durable=*/!config_.test_skip_ftl_shadow_commit, /*shadow_armed=*/true);
  }
  // Flush the frame this Store sealed. A failed flush leaves it sealed for
  // the next Store that needs it; this value is durable either way.
  if (sealed >= 0) {
    FlushFrame(static_cast<uint32_t>(sealed));
  }
  return status;
}

bool KvSsd::FlushFrame(uint32_t f) {
  while (frames_[f].copying > 0) {
    frame_cv_.Wait(mu_);
  }
  const uint64_t lpn = frames_[f].lpn;
  // A frame whose values all died needs no page: only its header goes.
  if (packed_refs_[lpn] > 1) {
    // The program streams the page out of controller memory; the media
    // write charges that transfer (its backend pipe), so reading the frame
    // costs nothing more here. No Store writes a frame being flushed.
    Buffer page(kPageBytes);
    pmr_->Read(layout_.FrameDataOff(f), page);
    uint64_t ppn = 0;
    if (ProgramRun(page, &ppn) != 0) {
      frames_[f].state = FrameState::kSealed;
      frame_cv_.NotifyAll();
      return false;
    }
    ftl_->MapInstall(lpn, ppn);
    StoreShadow(NextShadowSeq(), lpn, 1, ppn, kKvShadowNoSlot);
    if (!config_.test_skip_ftl_shadow_commit) {
      PmrFence();  // the mapping is durable: the staged copy is redundant
    }
  }
  // One uncached store, durable at once: from here recovery finds the frame
  // free, and the LPN may be freed and reused.
  PmrStoreUncached(layout_.FrameHeaderOff(f), Buffer(8, 0));
  frames_[f] = Frame{};
  frame_cv_.NotifyAll();
  DropPackedRef(lpn);
  return true;
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
  const bool packed = MetaPacked(meta);
  const uint32_t in_page = packed ? MetaOffset(meta) : 0;
  if (packed && PackedEnd(meta) > kKvFrameBytes) {
    return kKvStatusInternal;  // runs past its page: corrupt (Attach reported it)
  }
  if (const int f = packed ? StagedFrame(lpn) : -1; f >= 0) {
    // Still staged: read it from the frame, under mu_ so no flush retires
    // the frame meanwhile.
    out->assign(value_len, 0);
    pmr_->Read(layout_.FrameDataOff(static_cast<uint32_t>(f)) + in_page, *out);
    Simulator::Sleep(kPmrStoreNs * PmrLines(value_len));
    *result = value_len;
    retrieves_++;
    return 0;
  }
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
      std::copy(page.begin() + in_page, page.begin() + in_page + len, out->begin() + begin);
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
  PmrStoreWc(layout_.DirSlotOff(static_cast<uint32_t>(found)) + KvDirEntry::kMetaOffset, word);
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
    const KvDirEntry& e = dir_[s];
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
