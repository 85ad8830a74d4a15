// journal_inspect: dump the journal areas and the ccNVMe persistent
// submission-queue windows of a disk image, without mounting it.
//
//   journal_inspect <image-path> [--queue-depth N] [--queues N]
//                   [--mirror | --chunk N] [--json] [--metrics[=path]]
//
// For each journal area: the area superblock, then the transactions
// recovery would replay and the one it would refuse, found by recovery's
// own scan (src/jbd2/journal_format.h) under the sealing rule and with the
// P-SQ windows recovery would use; then the home blocks recovery's own
// replay would write, in order. For the PMR: each member device's
// per-queue [P-SQ-head, P-SQDB) window. Multi-device images need the volume
// geometry to resolve block addresses: --mirror reads through leg 0,
// --chunk N applies RAID-0 chunked striping (default chunk 64 blocks).
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
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/ccnvme/ccnvme_driver.h"
#include "src/extfs/layout.h"
#include "src/harness/image_file.h"
#include "src/jbd2/journal_format.h"
#include "src/metrics/export.h"
#include "src/metrics/metrics.h"
#include "src/sim/simulator.h"
#include "src/volume/volume.h"

using namespace ccnvme;

namespace {

unsigned long long U(uint64_t v) { return static_cast<unsigned long long>(v); }

// One transaction, replayable or the one |refused_by| refused, as a JSON
// record (and a sealed classic one's commit record) or as text lines.
void ReportTx(const ScannedTx& tx, const JournalArea& area, JournalSeal seal,
              const AreaScan* refused_by, std::ostringstream* json, bool* first_record) {
  const bool valid = refused_by == nullptr;
  const bool bad_block = !valid && refused_by->stop == ScanStop::kChecksumMismatch;
  if (json != nullptr) {
    *json << (*first_record ? "" : ",") << "\n      {\"pos\": " << tx.offset
          << ", \"type\": \"descriptor\", \"tx\": " << tx.desc.tx_id
          << ", \"valid\": " << (valid ? "true" : "false")
          << ", \"checked\": " << (tx.checked ? "true" : "false");
    if (!valid) {
      *json << ", \"stop\": \"" << ScanStopName(refused_by->stop) << "\"";
    }
    if (bad_block) {
      *json << ", \"bad_entry\": " << refused_by->bad_entry;
    }
    *json << ", \"entries\": [";
    for (size_t i = 0; i < tx.desc.entries.size(); ++i) {
      *json << (i == 0 ? "" : ", ") << "{\"home\": " << tx.desc.entries[i].home_lba
            << ", \"journal\": " << tx.journal_lbas[i] << "}";
    }
    *json << "], \"revoked\": [";
    for (size_t i = 0; i < tx.desc.revoked.size(); ++i) {
      *json << (i == 0 ? "" : ", ") << tx.desc.revoked[i];
    }
    *json << "]}";
    if (valid && seal == JournalSeal::kCommitRecord) {
      *json << ",\n      {\"pos\": " << tx.commit_lba - area.start
            << ", \"type\": \"commit\", \"tx\": " << tx.desc.tx_id << "}";
    }
    *first_record = false;
    return;
  }
  std::printf("  [%5llu] descriptor tx=%llu entries=%zu revoked=%zu%s\n", U(tx.offset),
              U(tx.desc.tx_id), tx.desc.entries.size(), tx.desc.revoked.size(),
              tx.checked ? "" : " (completed: trusted unread)");
  for (size_t i = 0; i < tx.desc.entries.size(); ++i) {
    std::printf("           home=%-8llu journal=%llu%s\n", U(tx.desc.entries[i].home_lba),
                U(tx.journal_lbas[i]),
                bad_block && i == refused_by->bad_entry ? " CHECKSUM BAD" : "");
  }
  for (BlockNo r : tx.desc.revoked) {
    std::printf("           revoked home=%llu\n", U(r));
  }
  if (!valid) {
    std::printf("           transaction INVALID (%s) — recovery would stop here\n",
                ScanStopName(refused_by->stop));
  } else if (seal == JournalSeal::kCommitRecord) {
    std::printf("  [%5llu] commit tx=%llu\n", U(tx.commit_lba - area.start),
                U(tx.desc.tx_id));
  }
}

// Reports one journal area as recovery's scan found it, appending either
// human-readable lines to stdout or a JSON area object to |json|.
void DumpArea(const JournalBlockReader& read, uint32_t index, const JournalArea& area,
              JournalSeal seal, const Result<AreaScan>& scan, std::ostringstream* json,
              Metrics* m) {
  if (!scan.ok()) {
    if (json != nullptr) {
      *json << "    {\"area\": " << index << ", \"error\": \"unreadable superblock\"}";
    } else {
      std::printf("area %u: unreadable superblock (%s)\n", index,
                  scan.status().ToString().c_str());
    }
    return;
  }
  if (json != nullptr) {
    *json << "    {\"area\": " << index << ", \"start_lba\": " << area.start
          << ", \"blocks\": " << area.blocks << ", \"start_offset\": " << scan->asb.start_offset
          << ", \"cleared_txid\": " << scan->asb.cleared_txid << ", \"records\": [";
  } else {
    std::printf("area %u @lba %llu (%llu blocks): start_offset=%llu cleared_txid=%llu\n",
                index, U(area.start), U(area.blocks), U(scan->asb.start_offset),
                U(scan->asb.cleared_txid));
  }
  bool first_record = true;
  for (const ScannedTx& tx : scan->txs) {
    ReportTx(tx, area, seal, nullptr, json, &first_record);
  }
  if (scan->refused.has_value()) {
    ReportTx(*scan->refused, area, seal, &*scan, json, &first_record);
  } else if (json == nullptr) {
    std::printf("  [%5llu] end of log (%s)\n", U(scan->end_offset), ScanStopName(scan->stop));
  }
  if (json != nullptr) {
    *json << (first_record ? "" : "\n    ") << "]}";
  }
  if (m == nullptr) {
    return;
  }
  MetricsRegistry& r = m->registry();
  const size_t refused = scan->refused.has_value() ? 1 : 0;
  r.Add(r.Counter("inspect.descriptor_records"), scan->txs.size() + refused);
  r.Add(r.Counter("inspect.commit_records"),
        seal == JournalSeal::kCommitRecord ? scan->txs.size() : 0);
  r.Add(r.Counter("inspect.invalid_txs"), refused);
  if (seal == JournalSeal::kCommitRecord && scan->stop == ScanStop::kChecksumMismatch) {
    // Media-level commit-record invariant: if the record after a
    // checksum-bad transaction body is that transaction's commit block,
    // the commit reached media before its blocks did (every member from
    // the first bad one on is not known to have landed).
    Buffer raw;
    (void)read(scan->refused->commit_lba, &raw);
    auto commit = CommitBlock::Parse(raw);
    if (commit.ok() && commit->tx_id == scan->refused->desc.tx_id) {
      m->monitors().OnJournalCommitRecord(
          commit->tx_id, scan->refused->desc.entries.size() - scan->bad_entry);
    }
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
  VolumeConfig volume;
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
      volume.chunk_blocks = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--mirror") == 0) {
      volume.kind = VolumeKind::kMirror;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      emit_json = true;
    }
  }

  auto image = LoadImage(argv[1]);
  if (!image.ok()) {
    std::fprintf(stderr, "cannot load image: %s\n", image.status().ToString().c_str());
    return 1;
  }
  // Volume blocks resolve through the volume's own stripe map (leg 0 of a
  // mirror); a block the image never wrote reads as zeros.
  const uint16_t num_devices = static_cast<uint16_t>(image->devices.size());
  const JournalBlockReader read = [&](BlockNo lba, Buffer* out) {
    const Volume::Extent e = Volume::MapExtents(volume, num_devices, 0, lba, 1).front();
    const MediaStore::BlockMap& media = image->devices[e.device].media;
    auto it = media.find(e.dev_lba);
    if (it == media.end()) {
      out->assign(kFsBlockSize, 0);
    } else {
      out->assign(it->second.data(), it->second.data() + it->second.size());
    }
    return OkStatus();
  };
  Buffer sb_raw;
  (void)read(0, &sb_raw);
  auto sb = Superblock::Parse(sb_raw);
  if (!sb.ok()) {
    std::fprintf(stderr, "bad superblock: %s\n", sb.status().ToString().c_str());
    return 1;
  }
  const FsLayout layout = sb->ToLayout();
  const JournalSeal seal = SealOf(sb->journal);
  const std::vector<JournalArea> areas = JournalAreasOf(sb->journal, layout);

  if (queues == 0) {
    queues = static_cast<uint16_t>(sb->journal_areas);
  }
  // Scan every member device's PMR: a transaction present in ANY member's
  // window is in doubt for the whole volume.
  std::vector<std::pair<size_t, CcNvmeDriver::UnfinishedRequest>> window;
  std::set<uint64_t> in_doubt;
  for (size_t d = 0; d < image->devices.size(); ++d) {
    if (image->devices[d].pmr.empty()) {
      continue;
    }
    const Pmr pmr(image->devices[d].pmr);
    for (const auto& req : CcNvmeDriver::ScanUnfinished(pmr, queues, queue_depth)) {
      window.emplace_back(d, req);
      in_doubt.insert(req.tx_id);
    }
  }

  // Offline inspection has no running stack; metrics live on a standalone
  // (never advanced) simulator, so every snapshot is stamped at t=0.
  Simulator metrics_sim;
  std::unique_ptr<Metrics> metrics;
  if (with_metrics) {
    metrics = std::make_unique<Metrics>(&metrics_sim);
    metrics->registry().Add(metrics->registry().Counter("inspect.window_entries"),
                            window.size());
  }
  std::ostringstream json;
  if (emit_json) {
    json << "{\n  \"total_blocks\": " << sb->total_blocks
         << ",\n  \"journal_areas\": " << sb->journal_areas << ",\n  \"journal\": \""
         << JournalKindName(sb->journal) << "\""
         << ",\n  \"dirty_mount\": " << (sb->dirty_mount != 0 ? "true" : "false")
         << ",\n  \"num_devices\": " << image->devices.size() << ",\n  \"areas\": [\n";
  } else {
    std::printf(
        "image: %llu blocks, %u journal area(s), %s journal, dirty_mount=%u, %zu device(s)\n\n",
        U(sb->total_blocks), sb->journal_areas, JournalKindName(sb->journal), sb->dirty_mount,
        image->devices.size());
  }
  std::vector<AreaScan> scans;
  for (size_t a = 0; a < areas.size(); ++a) {
    auto scan = ScanJournalArea(read, areas[a], seal,
                                seal == JournalSeal::kDescriptorChecksums ? &in_doubt : nullptr);
    DumpArea(read, static_cast<uint32_t>(a), areas[a], seal, scan,
             emit_json ? &json : nullptr, metrics.get());
    if (emit_json) {
      json << (a + 1 < areas.size() ? ",\n" : "\n");
    } else {
      std::printf("\n");
    }
    if (scan.ok()) {
      scans.push_back(std::move(*scan));
    }
  }
  // The home blocks a dirty mount's recovery would write, in order: its own
  // replay, writing nothing.
  std::string replay;
  (void)ReplayJournal(scans, read, [&](BlockNo home, const Buffer&) {
    replay += (replay.empty() ? "" : ", ") + std::to_string(home);
    return OkStatus();
  });
  if (emit_json) {
    json << "  ]" << (replay.empty() ? "" : ",\n  \"replay\": [" + replay + "]")
         << ",\n  \"windows\": [";
  } else {
    if (!replay.empty()) {
      std::printf("replay writes home, in tx-id order: %s\n\n", replay.c_str());
    }
    std::printf("ccNVMe P-SQ unfinished windows (%u queue(s), depth %u):\n", queues,
                queue_depth);
  }
  for (size_t i = 0; i < window.size(); ++i) {
    const auto& [d, req] = window[i];
    if (emit_json) {
      json << (i == 0 ? "" : ",") << "\n    {\"device\": " << d << ", \"qid\": " << req.qid
           << ", \"tx\": " << req.tx_id << ", \"lba\": " << req.slba
           << ", \"blocks\": " << req.num_blocks
           << ", \"commit\": " << (req.is_commit ? "true" : "false") << "}";
    } else {
      std::printf("  dev%zu q%u tx=%llu lba=%llu blocks=%u%s\n", d, req.qid, U(req.tx_id),
                  U(req.slba), req.num_blocks, req.is_commit ? " [commit]" : "");
    }
  }
  if (emit_json) {
    json << (window.empty() ? "" : "\n  ") << "]\n}\n";
    std::fputs(json.str().c_str(), stdout);
  } else if (window.empty()) {
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
