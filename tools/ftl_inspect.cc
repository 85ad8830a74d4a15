// ftl_inspect: dump the KV-SSD's FTL state from a crash image, without
// attaching it.
//
//   ftl_inspect <image-path> [--json] [--metrics[=path]]
//
// The KV superblock is self-describing, so no StackConfig is needed. The
// tool runs Attach's own reading of the image (src/nvme/kv_ssd.h) over an
// FTL whose flash is the image's durable media, and reports map residency,
// the shadow ring, each staging frame, per-erase-block valid page counts,
// the WAF stats mirror, and every violation Attach would flag. Values are
// bounded as Attach bounds them, by the geometry the superblock records
// (KvSuperblock::MaxValueBytes).
//
// With --metrics[=path] a metrics snapshot (inspect.ftl_* counters) is
// written to |path| (stdout when omitted), mirroring nvlog_inspect.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
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

struct BlockCount {
  uint32_t value_pages = 0;
  uint32_t map_pages = 0;
};

// The FTL's view of a crash image: GTD roots from the PMR, flash pages from
// the durable media (block key == PPN: the media store is 4 KB-blocked and
// the FTL writes page-aligned). Attach writes nothing.
class ImageFtlEnv : public FtlEnv {
 public:
  ImageFtlEnv(const CrashImage& image, const KvPmrLayout& layout)
      : image_(image), layout_(layout) {}

  uint64_t LoadGtd(uint32_t seg) override { return image_.pmr().ReadU64(layout_.GtdOff(seg)); }
  // A page the image lacks reads as all-unmapped entries (reported apart).
  bool FlashRead(uint64_t ppn, Buffer* out) override {
    auto it = image_.media().find(ppn);
    const bool held = it != image_.media().end() && it->second.size() >= kKvFrameBytes;
    out->assign(kKvFrameBytes, 0xFF);
    if (held) {
      std::copy(it->second.data(), it->second.data() + kKvFrameBytes, out->begin());
    }
    return held;
  }
  void PersistGtd(uint32_t, uint64_t) override {}
  bool FlashWrite(uint64_t, const Buffer&) override { return false; }
  uint64_t EraseLatencyNs() const override { return 0; }
  void OnMapCheckpointed() override {}

 private:
  const CrashImage& image_;
  const KvPmrLayout& layout_;
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
  Buffer sb_raw(kKvSuperblockBytes);
  pmr.Read(pmr.size() - kKvSuperblockBytes, sb_raw);
  const Result<KvSuperblock> parsed = KvSuperblock::Parse(sb_raw);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
    return 1;
  }
  const KvSuperblock& sb = *parsed;
  const KvPmrLayout layout = sb.Layout(pmr.size());
  if (layout.frame_off > pmr.size()) {
    std::fprintf(stderr, "KV metadata larger than the PMR (corrupt geometry)\n");
    return 1;
  }
  const uint32_t num_blocks = static_cast<uint32_t>(sb.flash_pages / sb.pages_per_block);
  std::vector<std::string> violations;

  // --- Attach's reading of the image -------------------------------------
  Simulator sim;  // never advanced: the image's reads cost no virtual time
  ImageFtlEnv env(*image, layout);
  Ftl ftl(&sim, &env, sb.ToFtlConfig());
  ftl.BeginAttach();
  ftl.AttachLoadGtd();

  // Map pages per erase block (each marked valid once), and the roots
  // whose page the image lacks.
  std::vector<BlockCount> blocks(num_blocks);
  std::set<uint64_t> map_pages;
  uint32_t resident_segments = 0;
  for (uint32_t s = 0; s < layout.num_segments; ++s) {
    const uint64_t root = env.LoadGtd(s);
    if (root == kFtlUnmapped) {
      continue;
    }
    resident_segments++;
    if (root < sb.flash_pages && map_pages.insert(root).second) {
      blocks[root / sb.pages_per_block].map_pages++;
    }
    if (image->media().count(root) == 0) {
      violations.push_back("gtd root for segment " + std::to_string(s) + " points at ppn " +
                           std::to_string(root) + " with no durable flash page");
    }
  }
  const KvShadowChain chain = ReplayShadowChain(pmr, layout, sb, ftl);
  const std::array<KvSsd::RecoveredFrame, kKvFrames> frames =
      KvSsd::RecoverFrames(pmr, layout, ftl, &violations);
  const KvSsd::Directory dir = KvSsd::WalkDirectory(pmr, layout, sb, frames, ftl, &violations);
  uint64_t live_pages = 0;  // distinct flash pages holding live values
  uint32_t empty_blocks = 0;
  for (uint32_t b = 0; b < num_blocks; ++b) {
    blocks[b].value_pages = ftl.block_valid_pages(b) - blocks[b].map_pages;
    live_pages += blocks[b].value_pages;
    empty_blocks += ftl.block_valid_pages(b) == 0 ? 1 : 0;
  }
  const uint64_t staged_values = dir.frame_values[0] + dir.frame_values[1];
  const double waf = sb.host_pages == 0 ? 0.0
                                        : static_cast<double>(sb.media_pages) /
                                              static_cast<double>(sb.host_pages);

  // Offline inspection has no running stack; metrics live on the
  // standalone simulator, so every snapshot is stamped at t=0.
  std::unique_ptr<Metrics> metrics;
  if (with_metrics) {
    metrics = std::make_unique<Metrics>(&sim);
    auto& reg = metrics->registry();
    reg.Add(reg.Counter("inspect.ftl_live_keys"), dir.live_keys);
    reg.Add(reg.Counter("inspect.ftl_tombstones"), dir.tombstones);
    reg.Add(reg.Counter("inspect.ftl_live_pages"), live_pages);
    reg.Add(reg.Counter("inspect.ftl_staged_values"), staged_values);
    reg.Add(reg.Counter("inspect.ftl_map_segments_resident"), resident_segments);
    reg.Add(reg.Counter("inspect.ftl_shadow_replayable"), chain.replayed);
    reg.Add(reg.Counter("inspect.ftl_shadow_torn"), chain.torn);
    reg.Add(reg.Counter("inspect.ftl_checkpoint_seq"), sb.checkpoint_seq);
    reg.Add(reg.Counter("inspect.ftl_host_pages"), sb.host_pages);
    reg.Add(reg.Counter("inspect.ftl_media_pages"), sb.media_pages);
    reg.Add(reg.Counter("inspect.ftl_gc_runs"), sb.gc_runs);
    reg.Add(reg.Counter("inspect.ftl_waf_x1000"), static_cast<uint64_t>(waf * 1000.0));
    reg.Add(reg.Counter("inspect.ftl_violations"), violations.size());
  }

  if (emit_json) {
    std::ostringstream json;
    json << "{\n  \"pmr_size\": " << pmr.size()
         << ",\n  \"checkpoint_seq\": " << sb.checkpoint_seq
         << ",\n  \"geometry\": {\"dir_slots\": " << sb.dir_slots
         << ", \"shadow_slots\": " << sb.shadow_slots << ", \"flash_pages\": " << sb.flash_pages
         << ", \"total_lpns\": " << sb.total_lpns
         << ", \"pages_per_block\": " << sb.pages_per_block
         << ", \"map_entries_per_segment\": " << sb.map_entries_per_segment
         << ", \"map_cache_segments\": " << sb.map_cache_segments
         << ", \"gc_free_blocks_low\": " << sb.gc_free_blocks_low << "}"
         << ",\n  \"stats\": {\"host_pages\": " << sb.host_pages
         << ", \"media_pages\": " << sb.media_pages << ", \"gc_runs\": " << sb.gc_runs
         << ", \"gc_migrated_pages\": " << sb.gc_migrated_pages << ", \"waf\": " << waf << "}"
         << ",\n  \"map_segments_resident\": " << resident_segments
         << ",\n  \"directory\": {\"live_keys\": " << dir.live_keys
         << ", \"tombstones\": " << dir.tombstones
         << ", \"live_value_bytes\": " << dir.live_value_bytes
         << ", \"live_pages\": " << live_pages << ", \"staged_values\": " << staged_values
         << "}"
         << ",\n  \"frames\": [";
    for (uint32_t f = 0; f < kKvFrames; ++f) {
      json << (f == 0 ? "" : ",") << "\n    {\"frame\": " << f << ", \"state\": \""
           << FrameStateName(frames[f].fate) << "\", \"lpn\": " << frames[f].lpn
           << ", \"fill\": " << dir.frame_fill[f] << ", \"live_values\": " << dir.frame_values[f]
           << "}";
    }
    json << "\n  ],\n  \"shadow_torn\": " << chain.torn << ",\n  \"shadows\": [";
    for (size_t i = 0; i < chain.entries.size(); ++i) {
      const KvShadowEntry& sh = chain.entries[i].shadow;
      json << (i == 0 ? "" : ",") << "\n    {\"seq\": " << sh.seq
           << ", \"ring_slot\": " << chain.entries[i].ring_slot << ", \"lpn\": " << sh.lpn
           << ", \"npages\": " << sh.npages << ", \"ppn\": " << sh.ppn
           << ", \"dir_slot\": " << sh.slot
           << ", \"replayed\": " << (i < chain.replayed ? "true" : "false") << "}";
    }
    json << (chain.entries.empty() ? "]" : "\n  ]") << ",\n  \"blocks\": [";
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
                static_cast<unsigned long long>(sb.checkpoint_seq));
    std::printf(
        "geometry: %u dir slots, %u shadow slots, %llu flash pages "
        "(%u blocks x %u), %llu lpns (%u map segments, cache %u), gc low %u\n",
        sb.dir_slots, sb.shadow_slots, static_cast<unsigned long long>(sb.flash_pages),
        num_blocks, sb.pages_per_block, static_cast<unsigned long long>(sb.total_lpns),
        layout.num_segments, sb.map_cache_segments, sb.gc_free_blocks_low);
    std::printf(
        "stats @ last checkpoint: host=%llu media=%llu pages (waf %.3f), "
        "gc runs=%llu migrated=%llu\n",
        static_cast<unsigned long long>(sb.host_pages),
        static_cast<unsigned long long>(sb.media_pages), waf,
        static_cast<unsigned long long>(sb.gc_runs),
        static_cast<unsigned long long>(sb.gc_migrated_pages));
    std::printf("map residency: %u/%u segments have flash roots\n", resident_segments,
                layout.num_segments);
    std::printf(
        "directory: %llu live key(s), %llu tombstone(s), %llu value bytes on %llu page(s) "
        "+ %llu staged value(s)\n",
        static_cast<unsigned long long>(dir.live_keys),
        static_cast<unsigned long long>(dir.tombstones),
        static_cast<unsigned long long>(dir.live_value_bytes),
        static_cast<unsigned long long>(live_pages),
        static_cast<unsigned long long>(staged_values));
    for (uint32_t f = 0; f < kKvFrames; ++f) {
      if (frames[f].fate == KvSsd::FrameFate::kFree) {
        std::printf("staging frame %u: free\n", f);
      } else if (frames[f].fate == KvSsd::FrameFate::kFlushed) {
        std::printf("staging frame %u: lpn %llu already mapped (flushed)\n", f,
                    static_cast<unsigned long long>(frames[f].lpn));
      } else {
        std::printf("staging frame %u: lpn %llu, %u of %zu bytes filled, %u live value(s)\n", f,
                    static_cast<unsigned long long>(frames[f].lpn), dir.frame_fill[f],
                    kKvFrameBytes, dir.frame_values[f]);
      }
    }
    std::printf("shadow ring: %zu undrained entr%s (%zu replayable), %u torn\n\n",
                chain.entries.size(), chain.entries.size() == 1 ? "y" : "ies", chain.replayed,
                chain.torn);
    for (size_t i = 0; i < chain.entries.size(); ++i) {
      const KvShadowEntry& sh = chain.entries[i].shadow;
      const std::string target =
          sh.ppn == kKvShadowUnmapped ? "unmapped" : "ppn=" + std::to_string(sh.ppn);
      const std::string slot =
          sh.slot == kKvShadowNoSlot ? "frame" : "dir_slot=" + std::to_string(sh.slot);
      std::printf("  [slot %3u] seq=%llu lpn=%llu+%u -> %s %s%s\n", chain.entries[i].ring_slot,
                  static_cast<unsigned long long>(sh.seq),
                  static_cast<unsigned long long>(sh.lpn), sh.npages, target.c_str(),
                  slot.c_str(),
                  i < chain.replayed ? "" : " (beyond the consecutive chain; not replayed)");
    }
    if (!chain.entries.empty()) {
      std::printf("\n");
    }
    std::printf("per-block valid pages (value+map of %u):\n", sb.pages_per_block);
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
