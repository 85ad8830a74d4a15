// ftl_inspect: dump the KV-SSD's FTL state from a crash image, without
// attaching it.
//
//   ftl_inspect <image-path> [--json] [--metrics[=path]]
//
// The KV superblock is self-describing (geometry lives at sb[56..96)), so
// no StackConfig is needed: the tool parses the PMR (superblock, GTD,
// shadow ring, staging frames, key directory), demand-loads the flash
// copies of the L2P map segments from the image's durable media view,
// replays the shadow tail exactly as mount-time Attach would, and then
// walks the directory — reporting map residency, the replayable shadow
// chain, each staging frame (LPN, fill, live values), per-erase-block
// valid page counts, the WAF stats mirror, and every violation a real
// Attach would flag (a live directory entry covering an unmapped LPN is
// the test_skip_ftl_shadow_commit signature). Packed values share their
// page's LPN, which is counted once.
//
// With --metrics[=path] a metrics snapshot (inspect.ftl_* counters) is
// written to |path| (stdout when omitted), mirroring nvlog_inspect.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/image_file.h"
#include "src/metrics/export.h"
#include "src/metrics/metrics.h"
#include "src/nvme/kv_ssd.h"
#include "src/sim/simulator.h"
#include "src/ssd/ftl.h"

using namespace ccnvme;

namespace {

struct ShadowRec {
  uint32_t ring_slot = 0;
  uint64_t seq = 0;
  uint64_t lpn = 0;
  uint32_t npages = 0;
  uint32_t ppn = 0;
  uint32_t dir_slot = 0;
  bool replayed = false;
};

struct BlockCount {
  uint32_t value_pages = 0;
  uint32_t map_pages = 0;
};

struct FrameRec {
  KvSsd::FrameFate fate = KvSsd::FrameFate::kFree;
  uint64_t lpn = 0;
  uint32_t fill = 0;
  uint32_t live_values = 0;
};

const char* FrameStateName(KvSsd::FrameFate fate) {
  return fate == KvSsd::FrameFate::kStaged    ? "staged"
         : fate == KvSsd::FrameFate::kFlushed ? "flushed"
                                              : "free";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <image-path> [--json] [--metrics[=path]]\n", argv[0]);
    return 2;
  }
  bool emit_json = false;
  bool with_metrics = false;
  std::string metrics_path;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics", 9) == 0) {
      with_metrics = true;
      if (argv[i][9] == '=') {
        metrics_path = argv[i] + 10;
      }
    } else if (std::strcmp(argv[i], "--json") == 0) {
      emit_json = true;
    }
  }

  auto image = LoadImage(argv[1]);
  if (!image.ok()) {
    std::fprintf(stderr, "cannot load image: %s\n", image.status().ToString().c_str());
    return 1;
  }
  const PageImage& pmr = image->pmr();
  if (pmr.size() < kKvSuperblockBytes) {
    std::fprintf(stderr, "image has no PMR (or one too small for a KV superblock)\n");
    return 1;
  }

  // --- superblock (self-describing) ----------------------------------------
  auto read_pmr = [&](size_t offset, size_t len) {
    Buffer bytes(len);
    pmr.Read(offset, bytes);
    return bytes;
  };
  const Buffer sb = read_pmr(pmr.size() - kKvSuperblockBytes, kKvSuperblockBytes);
  if (GetU32(sb, 0) != kKvSsdMagic || GetU32(sb, 4) != kKvSsdVersion) {
    std::fprintf(stderr, "no KV superblock on this PMR (not a kv.enabled image?)\n");
    return 1;
  }
  const uint64_t checkpoint_seq = GetU64(sb, 8);
  const uint64_t stored_hash = GetU64(sb, 16);
  // Stats mirror, refreshed at every map checkpoint (so it trails the crash
  // point by at most one shadow-ring wrap).
  const uint64_t host_pages = GetU64(sb, 24);
  const uint64_t media_pages = GetU64(sb, 32);
  const uint64_t gc_runs = GetU64(sb, 40);
  const uint64_t gc_migrated = GetU64(sb, 48);
  const uint32_t dir_slots = GetU32(sb, 56);
  const uint32_t shadow_slots = GetU32(sb, 60);
  const uint64_t flash_pages = GetU64(sb, 64);
  const uint64_t total_lpns = GetU64(sb, 72);
  const uint32_t pages_per_block = GetU32(sb, 80);
  const uint32_t map_entries_per_segment = GetU32(sb, 84);
  const uint32_t map_cache_segments = GetU32(sb, 88);
  const uint32_t gc_free_blocks_low = GetU32(sb, 92);

  // The geometry hash covers exactly these fields; a mismatch means the
  // superblock bytes are torn or foreign, so nothing below can be trusted.
  Buffer geo(48);
  PutU64(geo, 0, dir_slots);
  PutU64(geo, 8, shadow_slots);
  PutU64(geo, 16, flash_pages);
  PutU64(geo, 24, total_lpns);
  PutU64(geo, 32, pages_per_block);
  PutU64(geo, 40, map_entries_per_segment);
  if (Fnv1a(geo) != stored_hash) {
    std::fprintf(stderr, "superblock geometry hash mismatch (torn superblock?)\n");
    return 1;
  }
  if (dir_slots == 0 || shadow_slots == 0 || pages_per_block == 0 ||
      map_entries_per_segment == 0 || flash_pages == 0) {
    std::fprintf(stderr, "superblock geometry has zero fields\n");
    return 1;
  }
  const KvPmrLayout layout = KvPmrLayout::From(dir_slots, shadow_slots, total_lpns,
                                               map_entries_per_segment, pmr.size());
  if (layout.frame_off > pmr.size()) {
    std::fprintf(stderr, "KV metadata larger than the PMR (corrupt geometry)\n");
    return 1;
  }
  const uint32_t num_blocks = static_cast<uint32_t>(flash_pages / pages_per_block);
  std::vector<std::string> violations;

  // --- GTD + offline L2P ----------------------------------------------------
  // Segment roots from the PMR, then the flash copy of every resident
  // segment from the image's durable media view (block key == PPN: the
  // media store is 4 KB-blocked and the FTL writes page-aligned).
  std::vector<uint64_t> gtd(layout.num_segments);
  for (uint32_t s = 0; s < layout.num_segments; ++s) {
    gtd[s] = pmr.ReadU64(layout.gtd_off + static_cast<size_t>(s) * 8);
  }
  const MediaStore::BlockMap& media = image->media();
  std::vector<std::vector<uint64_t>> l2p(
      layout.num_segments, std::vector<uint64_t>(map_entries_per_segment, kFtlUnmapped));
  uint32_t resident_segments = 0;
  for (uint32_t s = 0; s < layout.num_segments; ++s) {
    if (gtd[s] == kFtlUnmapped) {
      continue;
    }
    resident_segments++;
    auto it = media.find(gtd[s]);
    if (it == media.end() || it->second.size() < map_entries_per_segment * 8ull) {
      violations.push_back("gtd root for segment " + std::to_string(s) +
                           " points at ppn " + std::to_string(gtd[s]) +
                           " with no durable flash page");
      continue;
    }
    for (uint32_t i = 0; i < map_entries_per_segment; ++i) {
      l2p[s][i] = GetU64(it->second, i * 8ull);
    }
  }

  // --- shadow ring ----------------------------------------------------------
  // Same acceptance rule as Attach: crc-clean records whose sequence lies in
  // (checkpoint, checkpoint + ring]; of those, the consecutive run starting
  // right above the checkpoint replays into the map.
  std::vector<ShadowRec> shadows;
  uint32_t shadow_torn = 0;
  for (uint32_t s = 0; s < shadow_slots; ++s) {
    const Buffer rec =
        read_pmr(layout.shadow_off + static_cast<size_t>(s) * kKvShadowBytes, kKvShadowBytes);
    const uint64_t seq = GetU64(rec, 0);
    if (seq == 0) {
      continue;  // never armed
    }
    const bool crc_ok =
        GetU32(rec, 28) ==
        static_cast<uint32_t>(Fnv1a(std::span<const uint8_t>(rec).first(28)) & 0xFFFFFFFF);
    if (!crc_ok) {
      shadow_torn++;
      continue;
    }
    if (seq <= checkpoint_seq || seq > checkpoint_seq + shadow_slots) {
      continue;  // stale: already covered by the checkpointed map
    }
    ShadowRec sh;
    sh.ring_slot = s;
    sh.seq = seq;
    sh.lpn = GetU64(rec, 8);
    sh.npages = GetU32(rec, 16);
    sh.ppn = GetU32(rec, 20);
    sh.dir_slot = GetU32(rec, 24);
    shadows.push_back(sh);
  }
  std::sort(shadows.begin(), shadows.end(),
            [](const ShadowRec& a, const ShadowRec& b) { return a.seq < b.seq; });
  uint64_t replay_seq = checkpoint_seq;
  uint32_t shadow_replayed = 0;
  for (ShadowRec& sh : shadows) {
    if (sh.seq != replay_seq + 1) {
      break;
    }
    for (uint32_t i = 0; i < sh.npages; ++i) {
      const uint64_t lpn = sh.lpn + i;
      if (lpn >= total_lpns) {
        continue;
      }
      l2p[lpn / map_entries_per_segment][lpn % map_entries_per_segment] =
          sh.ppn == kKvShadowUnmapped ? kFtlUnmapped : sh.ppn + i;
    }
    sh.replayed = true;
    replay_seq = sh.seq;
    shadow_replayed++;
  }

  // --- staging frames -------------------------------------------------------
  // Read by Attach's own rule against the replayed map.
  auto mapped = [&](uint64_t lpn) {
    return l2p[lpn / map_entries_per_segment][lpn % map_entries_per_segment];
  };
  std::array<uint64_t, kKvFrames> headers{};
  for (uint32_t f = 0; f < kKvFrames; ++f) {
    headers[f] = pmr.ReadU64(layout.FrameHeaderOff(f));
  }
  const std::array<KvSsd::RecoveredFrame, kKvFrames> recovered = KvSsd::RecoverFrames(
      headers, total_lpns, [&](uint64_t lpn) { return mapped(lpn) != kFtlUnmapped; },
      &violations);
  std::vector<FrameRec> frames(kKvFrames);
  for (uint32_t f = 0; f < kKvFrames; ++f) {
    frames[f].fate = recovered[f].fate;
    frames[f].lpn = recovered[f].lpn;
  }
  auto staged_frame = [&](uint64_t lpn) {
    for (uint32_t f = 0; f < kKvFrames; ++f) {
      if (frames[f].fate == KvSsd::FrameFate::kStaged && frames[f].lpn == lpn) {
        return static_cast<int>(f);
      }
    }
    return -1;
  };

  // --- directory walk + per-block valid counts ------------------------------
  uint64_t live_keys = 0;
  uint64_t tombstones = 0;
  uint64_t live_value_bytes = 0;
  uint64_t live_pages = 0;  // distinct flash pages holding live values
  uint64_t staged_values = 0;
  std::vector<BlockCount> blocks(num_blocks);
  std::vector<uint8_t> ppn_claimed(flash_pages, 0);
  std::vector<uint8_t> packed_lpn_seen(total_lpns, 0);
  for (uint32_t s = 0; s < layout.num_segments; ++s) {
    if (gtd[s] != kFtlUnmapped && gtd[s] < flash_pages) {
      blocks[gtd[s] / pages_per_block].map_pages++;
      ppn_claimed[gtd[s]] = 1;
    }
  }
  for (uint32_t s = 0; s < dir_slots; ++s) {
    const Buffer raw =
        read_pmr(layout.dir_off + static_cast<size_t>(s) * kKvDirSlotBytes, kKvDirSlotBytes);
    const uint64_t meta = GetU64(raw, 24);
    if ((meta & KvSsd::kMetaUsed) == 0) {
      continue;
    }
    if ((meta & KvSsd::kMetaTomb) != 0) {
      tombstones++;
      continue;
    }
    live_keys++;
    const uint64_t lpn = KvSsd::MetaLpn(meta);
    const uint32_t npages = KvSsd::MetaPages(meta);
    const uint32_t key_len = KvSsd::MetaKeyLen(meta);
    if (key_len < 1 || key_len > kKvMaxKeyLen || lpn + npages > total_lpns) {
      violations.push_back("directory slot " + std::to_string(s) +
                           " has out-of-range fields");
      continue;
    }
    live_value_bytes += KvSsd::MetaValueLen(meta);
    if (KvSsd::MetaPacked(meta)) {
      // Reported, and still counted as Attach counts it.
      const uint32_t end = KvSsd::PackedEnd(meta);
      if (end > kKvFrameBytes) {
        violations.push_back("directory slot " + std::to_string(s) +
                             " holds a packed entry that runs past its page (ends at byte " +
                             std::to_string(end) + ")");
      }
      if (const int f = staged_frame(lpn); f >= 0) {
        frames[f].live_values++;
        frames[f].fill = std::max(frames[f].fill, KvSsd::PackedBytes(end));
        staged_values++;
        continue;
      }
      if (packed_lpn_seen[lpn] != 0) {
        continue;  // a page shared with an earlier entry: claimed once
      }
      packed_lpn_seen[lpn] = 1;
    }
    for (uint32_t i = 0; i < npages; ++i) {
      const uint64_t l = lpn + i;
      const uint64_t ppn = mapped(l);
      if (ppn == kFtlUnmapped || ppn >= flash_pages) {
        violations.push_back("directory slot " + std::to_string(s) +
                             " covers unmapped lpn " + std::to_string(l) +
                             " (committed meta word without a durable shadow map-entry)");
        continue;
      }
      if (ppn_claimed[ppn] != 0) {
        violations.push_back("physical page " + std::to_string(ppn) +
                             " claimed by two live mappings");
        continue;
      }
      ppn_claimed[ppn] = 1;
      live_pages++;
      blocks[static_cast<uint32_t>(ppn / pages_per_block)].value_pages++;
    }
  }
  uint32_t empty_blocks = 0;
  for (const BlockCount& b : blocks) {
    if (b.value_pages == 0 && b.map_pages == 0) {
      empty_blocks++;
    }
  }
  const double waf =
      host_pages == 0 ? 0.0 : static_cast<double>(media_pages) / static_cast<double>(host_pages);

  // Offline inspection has no running stack; metrics live on a standalone
  // (never advanced) simulator, so every snapshot is stamped at t=0.
  Simulator metrics_sim;
  std::unique_ptr<Metrics> metrics;
  if (with_metrics) {
    metrics = std::make_unique<Metrics>(&metrics_sim);
    auto& reg = metrics->registry();
    reg.Add(reg.Counter("inspect.ftl_live_keys"), live_keys);
    reg.Add(reg.Counter("inspect.ftl_tombstones"), tombstones);
    reg.Add(reg.Counter("inspect.ftl_live_pages"), live_pages);
    reg.Add(reg.Counter("inspect.ftl_staged_values"), staged_values);
    reg.Add(reg.Counter("inspect.ftl_map_segments_resident"), resident_segments);
    reg.Add(reg.Counter("inspect.ftl_shadow_replayable"), shadow_replayed);
    reg.Add(reg.Counter("inspect.ftl_shadow_torn"), shadow_torn);
    reg.Add(reg.Counter("inspect.ftl_checkpoint_seq"), checkpoint_seq);
    reg.Add(reg.Counter("inspect.ftl_host_pages"), host_pages);
    reg.Add(reg.Counter("inspect.ftl_media_pages"), media_pages);
    reg.Add(reg.Counter("inspect.ftl_gc_runs"), gc_runs);
    reg.Add(reg.Counter("inspect.ftl_waf_x1000"), static_cast<uint64_t>(waf * 1000.0));
    reg.Add(reg.Counter("inspect.ftl_violations"), violations.size());
  }

  if (emit_json) {
    std::ostringstream json;
    json << "{\n  \"pmr_size\": " << pmr.size()
         << ",\n  \"checkpoint_seq\": " << checkpoint_seq
         << ",\n  \"geometry\": {\"dir_slots\": " << dir_slots
         << ", \"shadow_slots\": " << shadow_slots << ", \"flash_pages\": " << flash_pages
         << ", \"total_lpns\": " << total_lpns
         << ", \"pages_per_block\": " << pages_per_block
         << ", \"map_entries_per_segment\": " << map_entries_per_segment
         << ", \"map_cache_segments\": " << map_cache_segments
         << ", \"gc_free_blocks_low\": " << gc_free_blocks_low << "}"
         << ",\n  \"stats\": {\"host_pages\": " << host_pages
         << ", \"media_pages\": " << media_pages << ", \"gc_runs\": " << gc_runs
         << ", \"gc_migrated_pages\": " << gc_migrated << ", \"waf\": " << waf << "}"
         << ",\n  \"map_segments_resident\": " << resident_segments
         << ",\n  \"directory\": {\"live_keys\": " << live_keys
         << ", \"tombstones\": " << tombstones
         << ", \"live_value_bytes\": " << live_value_bytes
         << ", \"live_pages\": " << live_pages << ", \"staged_values\": " << staged_values
         << "}"
         << ",\n  \"frames\": [";
    for (uint32_t f = 0; f < kKvFrames; ++f) {
      json << (f == 0 ? "" : ",") << "\n    {\"frame\": " << f << ", \"state\": \""
           << FrameStateName(frames[f].fate) << "\", \"lpn\": " << frames[f].lpn
           << ", \"fill\": " << frames[f].fill << ", \"live_values\": " << frames[f].live_values
           << "}";
    }
    json << "\n  ],\n  \"shadow_torn\": " << shadow_torn << ",\n  \"shadows\": [";
    for (size_t i = 0; i < shadows.size(); ++i) {
      const ShadowRec& sh = shadows[i];
      json << (i == 0 ? "" : ",") << "\n    {\"seq\": " << sh.seq
           << ", \"ring_slot\": " << sh.ring_slot << ", \"lpn\": " << sh.lpn
           << ", \"npages\": " << sh.npages << ", \"ppn\": " << sh.ppn
           << ", \"dir_slot\": " << sh.dir_slot
           << ", \"replayed\": " << (sh.replayed ? "true" : "false") << "}";
    }
    json << (shadows.empty() ? "]" : "\n  ]") << ",\n  \"blocks\": [";
    for (uint32_t b = 0; b < num_blocks; ++b) {
      json << (b == 0 ? "" : ",") << "\n    {\"block\": " << b
           << ", \"value_pages\": " << blocks[b].value_pages
           << ", \"map_pages\": " << blocks[b].map_pages << "}";
    }
    json << (num_blocks == 0 ? "]" : "\n  ]") << ",\n  \"violations\": [";
    for (size_t i = 0; i < violations.size(); ++i) {
      json << (i == 0 ? "" : ", ") << "\"" << violations[i] << "\"";
    }
    json << "]\n}\n";
    std::fputs(json.str().c_str(), stdout);
  } else {
    std::printf("kv superblock: version %u, checkpoint_seq=%llu\n", kKvSsdVersion,
                static_cast<unsigned long long>(checkpoint_seq));
    std::printf(
        "geometry: %u dir slots, %u shadow slots, %llu flash pages "
        "(%u blocks x %u), %llu lpns (%u map segments, cache %u), gc low %u\n",
        dir_slots, shadow_slots, static_cast<unsigned long long>(flash_pages), num_blocks,
        pages_per_block, static_cast<unsigned long long>(total_lpns), layout.num_segments,
        map_cache_segments, gc_free_blocks_low);
    std::printf(
        "stats @ last checkpoint: host=%llu media=%llu pages (waf %.3f), "
        "gc runs=%llu migrated=%llu\n",
        static_cast<unsigned long long>(host_pages),
        static_cast<unsigned long long>(media_pages), waf,
        static_cast<unsigned long long>(gc_runs),
        static_cast<unsigned long long>(gc_migrated));
    std::printf("map residency: %u/%u segments have flash roots\n", resident_segments,
                layout.num_segments);
    std::printf(
        "directory: %llu live key(s), %llu tombstone(s), %llu value bytes on %llu page(s) "
        "+ %llu staged value(s)\n",
        static_cast<unsigned long long>(live_keys), static_cast<unsigned long long>(tombstones),
        static_cast<unsigned long long>(live_value_bytes),
        static_cast<unsigned long long>(live_pages),
        static_cast<unsigned long long>(staged_values));
    for (uint32_t f = 0; f < kKvFrames; ++f) {
      const FrameRec& fr = frames[f];
      if (fr.fate == KvSsd::FrameFate::kFree) {
        std::printf("staging frame %u: free\n", f);
      } else if (fr.fate == KvSsd::FrameFate::kFlushed) {
        std::printf("staging frame %u: lpn %llu already mapped (flushed)\n", f,
                    static_cast<unsigned long long>(fr.lpn));
      } else {
        std::printf("staging frame %u: lpn %llu, %u of %zu bytes filled, %u live value(s)\n", f,
                    static_cast<unsigned long long>(fr.lpn), fr.fill, kKvFrameBytes,
                    fr.live_values);
      }
    }
    std::printf("shadow ring: %zu undrained entr%s (%u replayable), %u torn\n\n",
                shadows.size(), shadows.size() == 1 ? "y" : "ies", shadow_replayed,
                shadow_torn);
    for (const ShadowRec& sh : shadows) {
      const std::string target =
          sh.ppn == kKvShadowUnmapped ? "unmapped" : "ppn=" + std::to_string(sh.ppn);
      const std::string slot =
          sh.dir_slot == kKvShadowNoSlot ? "frame" : "dir_slot=" + std::to_string(sh.dir_slot);
      std::printf("  [slot %3u] seq=%llu lpn=%llu+%u -> %s %s%s\n", sh.ring_slot,
                  static_cast<unsigned long long>(sh.seq),
                  static_cast<unsigned long long>(sh.lpn), sh.npages, target.c_str(),
                  slot.c_str(),
                  sh.replayed ? "" : " (beyond the consecutive chain; not replayed)");
    }
    if (!shadows.empty()) {
      std::printf("\n");
    }
    std::printf("per-block valid pages (value+map of %u):\n", pages_per_block);
    for (uint32_t b = 0; b < num_blocks; ++b) {
      if (blocks[b].value_pages == 0 && blocks[b].map_pages == 0) {
        continue;
      }
      std::printf("  block %3u: %3u value + %u map\n", b, blocks[b].value_pages,
                  blocks[b].map_pages);
    }
    std::printf("  (%u of %u blocks hold no live data)\n", empty_blocks, num_blocks);
    if (violations.empty()) {
      std::printf("\nconsistency: OK (map and directory agree)\n");
    } else {
      std::printf("\nconsistency: %zu violation(s)\n", violations.size());
      for (const std::string& v : violations) {
        std::printf("  VIOLATION: %s\n", v.c_str());
      }
    }
  }

  if (metrics != nullptr) {
    const MetricsSnapshot snap = metrics->TakeSnapshot();
    if (!WriteSnapshotJson(snap, metrics_path)) {
      std::fprintf(stderr, "cannot write metrics to %s\n", metrics_path.c_str());
      return 1;
    }
  }
  return violations.empty() ? 0 : 1;
}
