// fsck_ccnvme: check a disk image for consistency.
//
//   fsck_ccnvme <image-path> [--ls] [--save] [--mirror | --chunk N] [--json]
//               [--metrics[=path]]
//
// Mounts the image with the journal and geometry its superblock records
// (running journal recovery if the previous mount was dirty; an NVLog
// image boots with the NVM tier it carries), walks the directory tree,
// validates inodes, link counts and directory structure, and prints a
// summary. With --ls the full tree is
// listed; with --save the recovered image is written back; with --json a
// machine-readable report is printed instead of the prose. Multi-device
// images mount through the volume layer: --mirror selects RAID-1, --chunk N
// sets the RAID-0 stripe unit (default 64 blocks). With --metrics[=path]
// the invariant monitors run during recovery and a full metrics JSON
// snapshot (including per-monitor violation counts) is written to |path|
// (stdout when omitted); a nonzero violation count fails the check.
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>

#include "src/harness/image_file.h"
#include "src/metrics/export.h"

using namespace ccnvme;

namespace {

void ListTree(ExtFs& fs, const std::string& path, int depth) {
  auto entries = fs.ListDir(path.empty() ? "/" : path);
  if (!entries.ok()) {
    return;
  }
  for (const DirEntry& e : *entries) {
    const std::string child = path + "/" + e.name;
    auto info = fs.StatPath(child);
    if (info.ok()) {
      std::printf("%*s%-30s ino=%-6u %s size=%llu nlink=%u blocks=%llu\n", depth * 2, "",
                  e.name.c_str(), info->ino,
                  info->type == FileType::kDirectory ? "dir " : "file",
                  static_cast<unsigned long long>(info->size), info->nlink,
                  static_cast<unsigned long long>(info->blocks));
    }
    if (e.type == FileType::kDirectory) {
      ListTree(fs, child, depth + 1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <image-path> [--ls] [--save] [--json]\n", argv[0]);
    return 2;
  }
  const std::string path = argv[1];
  bool ls = false;
  bool save = false;
  bool emit_json = false;
  bool mirror = false;
  bool with_metrics = false;
  std::string metrics_path;
  uint32_t chunk = 64;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ls") == 0) {
      ls = true;
    } else if (std::strcmp(argv[i], "--save") == 0) {
      save = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      emit_json = true;
    } else if (std::strncmp(argv[i], "--metrics", 9) == 0) {
      with_metrics = true;
      if (argv[i][9] == '=') {
        metrics_path = argv[i] + 10;
      }
    } else if (std::strcmp(argv[i], "--mirror") == 0) {
      mirror = true;
    } else if (std::strcmp(argv[i], "--chunk") == 0 && i + 1 < argc) {
      chunk = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    }
  }

  auto image = LoadImage(path);
  if (!image.ok()) {
    std::fprintf(stderr, "cannot load image: %s\n", image.status().ToString().c_str());
    return 1;
  }

  StackConfig cfg;
  // Multi-device images mount through the volume layer with the geometry
  // given on the command line.
  cfg.num_devices = static_cast<uint16_t>(image->devices.size());
  cfg.volume.kind = mirror ? VolumeKind::kMirror : VolumeKind::kStripe;
  cfg.volume.chunk_blocks = chunk;
  // Everything else comes from the on-media superblock. It is volume block
  // 0: on a stripe that is chunk 0 of device 0; on a mirror, leg 0 holds a
  // full copy.
  {
    auto it = image->devices[0].media.find(0);
    if (it == image->devices[0].media.end()) {
      std::fprintf(stderr, "image has no superblock\n");
      return 1;
    }
    auto sb = Superblock::Parse(it->second);
    if (!sb.ok()) {
      std::fprintf(stderr, "bad superblock: %s\n", sb.status().ToString().c_str());
      return 1;
    }
    cfg.fs_total_blocks = sb->total_blocks;
    cfg.fs.journal = sb->journal;
    cfg.fs.journal_blocks = sb->journal_blocks;
    cfg.fs.journal_areas = sb->journal_areas;
    cfg.num_queues = static_cast<uint16_t>(std::max<uint32_t>(1, sb->journal_areas));
    // NVLog stacks run without ccNVMe, as mkfs formats them; the stack
    // takes the NVM tier, and its size, from the image.
    cfg.enable_ccnvme = sb->journal != JournalKind::kNvlog;
    if (sb->dirty_mount != 0 && !emit_json) {
      std::printf("dirty mount flag set: journal recovery will run\n");
    }
  }

  StorageStack stack(cfg, *image);
  // Enabled BEFORE the mount so the invariant monitors watch journal
  // recovery itself (P-SQ window coverage, ordering, doorbells).
  if (with_metrics) {
    stack.EnableMetrics();
  }
  Status st = stack.MountExisting();
  if (!st.ok()) {
    if (emit_json) {
      std::printf("{\"mounted\": false, \"error\": \"%s\"}\n", st.ToString().c_str());
    } else {
      std::fprintf(stderr, "MOUNT FAILED: %s\n", st.ToString().c_str());
    }
    return 1;
  }
  int rc = 0;
  std::ostringstream json;
  stack.Run([&] {
    Status consistent = stack.fs().CheckConsistency();
    if (!consistent.ok()) {
      rc = 1;
    }
    auto inodes = stack.fs().allocator()->CountUsedInodes();
    auto blocks = stack.fs().allocator()->CountUsedBlocks();
    if (emit_json) {
      json << "{\n  \"mounted\": true,\n  \"clean\": "
           << (consistent.ok() ? "true" : "false");
      if (!consistent.ok()) {
        json << ",\n  \"corruption\": \"" << consistent.ToString() << "\"";
      }
      json << ",\n  \"num_devices\": " << stack.num_devices();
      if (inodes.ok() && blocks.ok()) {
        json << ",\n  \"inodes_in_use\": " << *inodes
             << ",\n  \"blocks_in_use\": " << *blocks;
      }
      json << "\n}\n";
    } else {
      if (consistent.ok()) {
        std::printf("filesystem: CLEAN\n");
      } else {
        std::printf("filesystem: CORRUPT — %s\n", consistent.ToString().c_str());
      }
      if (inodes.ok() && blocks.ok()) {
        std::printf("inodes in use: %llu   blocks in use: %llu\n",
                    static_cast<unsigned long long>(*inodes),
                    static_cast<unsigned long long>(*blocks));
      }
      if (ls) {
        ListTree(stack.fs(), "", 0);
      }
    }
  });
  if (emit_json) {
    std::fputs(json.str().c_str(), stdout);
  }
  if (with_metrics) {
    const MetricsSnapshot snap = stack.metrics()->TakeSnapshot();
    if (!WriteSnapshotJson(snap, metrics_path)) {
      std::fprintf(stderr, "cannot write metrics to %s\n", metrics_path.c_str());
      return 1;
    }
    if (snap.TotalViolations() != 0) {
      for (const std::string& line : stack.metrics()->monitors().ViolationReport()) {
        std::fprintf(stderr, "MONITOR: %s\n", line.c_str());
      }
      rc = 1;
    }
  }
  if (rc == 0 && save) {
    Status us = stack.Unmount();
    if (us.ok()) {
      us = SaveImage(stack.CaptureCrashImage(), path);
    }
    if (!us.ok()) {
      std::fprintf(stderr, "save failed: %s\n", us.ToString().c_str());
      return 1;
    }
    if (!emit_json) {
      std::printf("recovered image saved\n");
    }
  }
  return rc;
}
