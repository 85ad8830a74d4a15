// journal_inspect: dump the journal areas and the ccNVMe persistent
// submission-queue windows of a disk image, without mounting it.
//
//   journal_inspect <image-path> [--queue-depth N] [--queues N]
//                   [--mirror | --chunk N] [--json] [--metrics[=path]]
//
// For each journal area: the area superblock, then every record reachable
// from its start offset, with per-block checksum validation — exactly what
// recovery would see. For the PMR: each member device's per-queue
// [P-SQ-head, P-SQDB) window. Multi-device images need the volume geometry
// to resolve block addresses: --mirror reads through leg 0, --chunk N
// applies RAID-0 chunked striping (default chunk 64 blocks).
//
// With --metrics[=path] a metrics snapshot (inspect.* counters plus monitor
// violations) is written to |path| (stdout when omitted). The inspection
// runs the commit-record invariant against the media itself: a commit
// record that follows a checksum-bad transaction body means the commit
// reached media before its blocks — the journal.commit_after_blocks
// invariant violated on disk; a nonzero violation count exits 1.
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "src/ccnvme/ccnvme_driver.h"
#include "src/extfs/layout.h"
#include "src/harness/image_file.h"
#include "src/jbd2/journal_format.h"
#include "src/metrics/export.h"
#include "src/metrics/metrics.h"
#include "src/sim/simulator.h"

using namespace ccnvme;

namespace {

struct Geometry {
  bool mirror = false;
  uint64_t chunk = 64;
};

// Resolves a volume block address to (device, device lba) per the geometry.
std::pair<size_t, uint64_t> Resolve(const CrashImage& image, const Geometry& geo,
                                    uint64_t lba) {
  const size_t n = image.devices.size();
  if (n == 1 || geo.mirror) {
    return {0, lba};
  }
  const uint64_t stripe = lba / geo.chunk;
  return {stripe % n, (stripe / n) * geo.chunk + lba % geo.chunk};
}

MediaBlock ReadBlock(const CrashImage& image, const Geometry& geo, uint64_t lba) {
  const auto [dev, dev_lba] = Resolve(image, geo, lba);
  auto it = image.devices[dev].media.find(dev_lba);
  if (it == image.devices[dev].media.end()) {
    return MediaBlock(Buffer(kFsBlockSize, 0));
  }
  return it->second;
}

// Walks one journal area, appending either human-readable lines to stdout
// or JSON record objects to |json|.
void DumpArea(const CrashImage& image, const Geometry& geo, const FsLayout& layout,
              uint32_t area, std::ostringstream* json, Metrics* m) {
  const BlockNo start = layout.area_start(area);
  const uint64_t blocks = layout.blocks_per_area();
  auto asb = AreaSuperblock::Parse(ReadBlock(image, geo, start));
  if (!asb.ok()) {
    if (json != nullptr) {
      *json << "    {\"area\": " << area << ", \"error\": \"unreadable superblock\"}";
    } else {
      std::printf("area %u: unreadable superblock (%s)\n", area,
                  asb.status().ToString().c_str());
    }
    return;
  }
  if (json != nullptr) {
    *json << "    {\"area\": " << area << ", \"start_lba\": " << start
          << ", \"blocks\": " << blocks << ", \"start_offset\": " << asb->start_offset
          << ", \"cleared_txid\": " << asb->cleared_txid << ", \"records\": [";
  } else {
    std::printf("area %u @lba %llu (%llu blocks): start_offset=%llu cleared_txid=%llu\n",
                area, static_cast<unsigned long long>(start),
                static_cast<unsigned long long>(blocks),
                static_cast<unsigned long long>(asb->start_offset),
                static_cast<unsigned long long>(asb->cleared_txid));
  }

  uint64_t pos = asb->start_offset;
  uint64_t prev = asb->cleared_txid;
  bool first_record = true;
  auto next = [&](uint64_t p) { return p + 1 >= blocks ? 1 : p + 1; };
  for (;;) {
    const MediaBlock raw = ReadBlock(image, geo, start + pos);
    auto type = PeekRecordType(raw);
    if (!type.ok()) {
      if (json == nullptr) {
        std::printf("  [%5llu] end of log (%s)\n", static_cast<unsigned long long>(pos),
                    type.status().ToString().c_str());
      }
      break;
    }
    if (*type == JournalRecordType::kCommit) {
      auto commit = CommitBlock::Parse(raw);
      if (m != nullptr) {
        m->registry().Add(m->registry().Counter("inspect.commit_records"), 1);
      }
      if (json != nullptr) {
        *json << (first_record ? "" : ",") << "\n      {\"pos\": " << pos
              << ", \"type\": \"commit\", \"tx\": " << commit->tx_id << "}";
        first_record = false;
      } else {
        std::printf("  [%5llu] commit tx=%llu\n", static_cast<unsigned long long>(pos),
                    static_cast<unsigned long long>(commit->tx_id));
      }
      pos = next(pos);
      continue;
    }
    if (*type != JournalRecordType::kDescriptor) {
      if (json == nullptr) {
        std::printf("  [%5llu] unexpected record type\n",
                    static_cast<unsigned long long>(pos));
      }
      break;
    }
    auto desc = DescriptorBlock::Parse(raw);
    if (m != nullptr) {
      m->registry().Add(m->registry().Counter("inspect.descriptor_records"), 1);
    }
    if (desc->tx_id <= prev) {
      if (json == nullptr) {
        std::printf("  [%5llu] stale descriptor tx=%llu (<= cleared) — end of log\n",
                    static_cast<unsigned long long>(pos),
                    static_cast<unsigned long long>(desc->tx_id));
      }
      break;
    }
    if (json == nullptr) {
      std::printf("  [%5llu] descriptor tx=%llu entries=%zu revoked=%zu\n",
                  static_cast<unsigned long long>(pos),
                  static_cast<unsigned long long>(desc->tx_id), desc->entries.size(),
                  desc->revoked.size());
    }
    uint64_t p = next(pos);
    bool valid = true;
    size_t bad_entries = 0;
    std::ostringstream entries;
    bool first_entry = true;
    for (const JournalEntry& e : desc->entries) {
      const MediaBlock content = ReadBlock(image, geo, start + p);
      const bool ok = Fnv1a(content) == e.content_checksum;
      if (!ok) {
        ++bad_entries;
      }
      if (json != nullptr) {
        entries << (first_entry ? "" : ", ") << "{\"home\": " << e.home_lba
                << ", \"journal\": " << start + p << ", \"valid\": " << (ok ? "true" : "false")
                << "}";
        first_entry = false;
      } else {
        std::printf("           home=%-8llu journal=%-8llu %s\n",
                    static_cast<unsigned long long>(e.home_lba),
                    static_cast<unsigned long long>(start + p),
                    ok ? "valid" : "CHECKSUM BAD");
      }
      valid = valid && ok;
      p = next(p);
    }
    if (json != nullptr) {
      *json << (first_record ? "" : ",") << "\n      {\"pos\": " << pos
            << ", \"type\": \"descriptor\", \"tx\": " << desc->tx_id
            << ", \"valid\": " << (valid ? "true" : "false") << ", \"entries\": ["
            << entries.str() << "], \"revoked\": [";
      for (size_t i = 0; i < desc->revoked.size(); ++i) {
        *json << (i == 0 ? "" : ", ") << desc->revoked[i];
      }
      *json << "]}";
      first_record = false;
    } else {
      for (BlockNo r : desc->revoked) {
        std::printf("           revoked home=%llu\n", static_cast<unsigned long long>(r));
      }
    }
    if (!valid) {
      if (m != nullptr) {
        m->registry().Add(m->registry().Counter("inspect.invalid_txs"), 1);
        // Media-level commit-record invariant: if the record after a
        // checksum-bad transaction body is that transaction's commit block,
        // the commit reached media before its blocks did.
        auto peek = PeekRecordType(ReadBlock(image, geo, start + p));
        if (peek.ok() && *peek == JournalRecordType::kCommit) {
          auto commit = CommitBlock::Parse(ReadBlock(image, geo, start + p));
          if (commit.ok() && commit->tx_id == desc->tx_id) {
            m->monitors().OnJournalCommitRecord(desc->tx_id, bad_entries);
          }
        }
      }
      if (json == nullptr) {
        std::printf("           transaction INVALID — recovery would stop here\n");
      }
      break;
    }
    prev = desc->tx_id;
    pos = p;
  }
  if (json != nullptr) {
    *json << (first_record ? "" : "\n    ") << "]}";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <image-path> [--queue-depth N] [--queues N]"
                 " [--mirror | --chunk N] [--json] [--metrics[=path]]\n",
                 argv[0]);
    return 2;
  }
  uint16_t queue_depth = 256;
  uint16_t queues = 0;
  bool emit_json = false;
  bool with_metrics = false;
  std::string metrics_path;
  Geometry geo;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics", 9) == 0) {
      with_metrics = true;
      if (argv[i][9] == '=') {
        metrics_path = argv[i] + 10;
      }
    } else if (std::strcmp(argv[i], "--queue-depth") == 0 && i + 1 < argc) {
      queue_depth = static_cast<uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--queues") == 0 && i + 1 < argc) {
      queues = static_cast<uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--chunk") == 0 && i + 1 < argc) {
      geo.chunk = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--mirror") == 0) {
      geo.mirror = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      emit_json = true;
    }
  }

  auto image = LoadImage(argv[1]);
  if (!image.ok()) {
    std::fprintf(stderr, "cannot load image: %s\n", image.status().ToString().c_str());
    return 1;
  }
  const MediaBlock sb_raw = ReadBlock(*image, geo, 0);
  auto sb = Superblock::Parse(sb_raw);
  if (!sb.ok()) {
    std::fprintf(stderr, "bad superblock: %s\n", sb.status().ToString().c_str());
    return 1;
  }
  const FsLayout layout = sb->ToLayout();
  // Offline inspection has no running stack; metrics live on a standalone
  // (never advanced) simulator, so every snapshot is stamped at t=0.
  Simulator metrics_sim;
  std::unique_ptr<Metrics> metrics;
  if (with_metrics) {
    metrics = std::make_unique<Metrics>(&metrics_sim);
  }
  std::ostringstream json;
  if (emit_json) {
    json << "{\n  \"total_blocks\": " << sb->total_blocks
         << ",\n  \"journal_areas\": " << sb->journal_areas
         << ",\n  \"dirty_mount\": " << (sb->dirty_mount != 0 ? "true" : "false")
         << ",\n  \"num_devices\": " << image->devices.size() << ",\n  \"areas\": [\n";
  } else {
    std::printf("image: %llu blocks, %u journal area(s), dirty_mount=%u, %zu device(s)\n\n",
                static_cast<unsigned long long>(sb->total_blocks), sb->journal_areas,
                sb->dirty_mount, image->devices.size());
  }
  for (uint32_t a = 0; a < sb->journal_areas; ++a) {
    DumpArea(*image, geo, layout, a, emit_json ? &json : nullptr, metrics.get());
    if (emit_json) {
      json << (a + 1 < sb->journal_areas ? ",\n" : "\n");
    } else {
      std::printf("\n");
    }
  }

  if (queues == 0) {
    queues = static_cast<uint16_t>(sb->journal_areas);
  }
  // Scan every member device's PMR: a transaction present in ANY member's
  // window is in doubt for the whole volume.
  if (emit_json) {
    json << "  ],\n  \"windows\": [";
  } else {
    std::printf("ccNVMe P-SQ unfinished windows (%u queue(s), depth %u):\n", queues,
                queue_depth);
  }
  bool first_window = true;
  size_t total = 0;
  for (size_t d = 0; d < image->devices.size(); ++d) {
    if (image->devices[d].pmr.empty()) {
      continue;
    }
    const Pmr pmr(image->devices[d].pmr);
    for (const auto& req : CcNvmeDriver::ScanUnfinished(pmr, queues, queue_depth)) {
      ++total;
      if (metrics != nullptr) {
        metrics->registry().Add(metrics->registry().Counter("inspect.window_entries"), 1);
      }
      if (emit_json) {
        json << (first_window ? "" : ",") << "\n    {\"device\": " << d
             << ", \"qid\": " << req.qid << ", \"tx\": " << req.tx_id
             << ", \"lba\": " << req.slba << ", \"blocks\": " << req.num_blocks
             << ", \"commit\": " << (req.is_commit ? "true" : "false") << "}";
        first_window = false;
      } else {
        std::printf("  dev%zu q%u tx=%llu lba=%llu blocks=%u%s\n", d, req.qid,
                    static_cast<unsigned long long>(req.tx_id),
                    static_cast<unsigned long long>(req.slba), req.num_blocks,
                    req.is_commit ? " [commit]" : "");
      }
    }
  }
  if (emit_json) {
    json << (first_window ? "" : "\n  ") << "]\n}\n";
    std::fputs(json.str().c_str(), stdout);
  } else if (total == 0) {
    std::printf("  (empty — every submitted transaction completed in order)\n");
  }
  if (metrics != nullptr) {
    const MetricsSnapshot snap = metrics->TakeSnapshot();
    if (!WriteSnapshotJson(snap, metrics_path)) {
      std::fprintf(stderr, "cannot write metrics to %s\n", metrics_path.c_str());
      return 1;
    }
    if (snap.TotalViolations() != 0) {
      for (const std::string& line : metrics->monitors().ViolationReport()) {
        std::fprintf(stderr, "MONITOR: %s\n", line.c_str());
      }
      return 1;
    }
  }
  return 0;
}
