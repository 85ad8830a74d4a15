// The inspect tools and fsck, run as binaries on images these tests write:
// journal_inspect reports what recovery's scan decides, ftl_inspect reports
// a corrupt directory entry exactly as Attach does, and fsck mounts an image
// with the journal its superblock names.
#include <sys/wait.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/harness/image_file.h"
#include "src/jbd2/journal_format.h"

namespace ccnvme {
namespace {

struct ToolRun {
  int exit_code = -1;
  std::string out;  // standard output
};

ToolRun RunTool(const std::string& binary, const std::string& args) {
  ToolRun run;
  const std::string command = binary + " " + args + " 2>/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return run;
  }
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    run.out.append(buf, n);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

JsonValue ParseJson(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(JsonParse(text, &v, &error)) << error << "\n" << text;
  return v;
}

std::string TempImage(const char* name) {
  return std::string("/tmp/ccnvme_tools_test_") + name + ".img";
}

// --- journal_inspect ------------------------------------------------------

// One create + append + fsync on Ext4 leaves one classic transaction in the
// log, which the inspector shows recovery replaying; with its commit record
// zeroed, recovery refuses it, and so does the inspector, which runs
// recovery's scan and replay.
TEST(JournalInspectTest, ClassicTransactionWithAZeroedCommitRecordIsNotReplayable) {
  StackConfig cfg;
  cfg.fs_total_blocks = 65536;
  cfg.fs.journal = JournalKind::kClassic;
  cfg.fs.journal_blocks = 1024;
  StorageStack stack(cfg);
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  CrashImage image;
  stack.Run([&] {
    auto ino = stack.fs().Create("/committed");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(stack.fs().Append(*ino, Buffer(kFsBlockSize, 0x5C)).ok());
    ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    image = stack.CaptureCrashImage();
  });

  const FsLayout layout = Superblock::Parse(image.media().at(0))->ToLayout();
  const JournalArea area = JournalAreasOf(JournalKind::kClassic, layout).front();
  const JournalBlockReader read = [&](BlockNo lba, Buffer* out) {
    auto it = image.media().find(lba);
    *out = it == image.media().end() ? Buffer(kFsBlockSize, 0)
                                     : Buffer(it->second.data(),
                                              it->second.data() + it->second.size());
    return OkStatus();
  };
  auto scan = ScanJournalArea(read, area, JournalSeal::kCommitRecord, nullptr);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->txs.size(), 1u);
  const ScannedTx tx = scan->txs.front();

  // Sealed, the transaction is replayed: the inspector lists its home blocks.
  const std::string path = TempImage("zeroed_commit");
  ASSERT_TRUE(SaveImage(image, path).ok());
  ToolRun run = RunTool(JOURNAL_INSPECT_BIN, path + " --json");
  EXPECT_EQ(run.exit_code, 0);
  const JsonValue sealed = ParseJson(run.out);
  const JsonValue* replay = sealed.Find("replay");
  ASSERT_NE(replay, nullptr) << run.out;
  ASSERT_EQ(replay->arr.size(), tx.desc.entries.size());
  for (size_t i = 0; i < replay->arr.size(); ++i) {
    EXPECT_EQ(static_cast<BlockNo>(replay->arr[i].num), tx.desc.entries[i].home_lba);
  }

  image.media()[tx.commit_lba] = MediaBlock(Buffer(kFsBlockSize, 0));

  scan = ScanJournalArea(read, area, JournalSeal::kCommitRecord, nullptr);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->txs.empty());
  EXPECT_EQ(scan->stop, ScanStop::kNoCommitRecord);

  ASSERT_TRUE(SaveImage(image, path).ok());
  run = RunTool(JOURNAL_INSPECT_BIN, path + " --json");
  EXPECT_EQ(run.exit_code, 0);
  const JsonValue report = ParseJson(run.out);
  EXPECT_EQ(report.Str("journal"), "classic");
  EXPECT_EQ(report.Find("replay"), nullptr);  // nothing left to replay
  const JsonValue* areas = report.Find("areas");
  ASSERT_NE(areas, nullptr);
  ASSERT_EQ(areas->arr.size(), 1u);
  const JsonValue* records = areas->arr[0].Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->arr.size(), 1u);  // the refused descriptor, no commit record
  const JsonValue& desc = records->arr[0];
  EXPECT_EQ(desc.U64("tx"), tx.desc.tx_id);
  EXPECT_EQ(desc.Find("valid")->b, false);
  EXPECT_EQ(desc.Str("stop"), "no commit record");

  // Recovery agrees: the transaction, and the file it created, are gone.
  StorageStack booted(cfg, image);
  ASSERT_TRUE(booted.MountExisting().ok());
  booted.Run([&] { EXPECT_FALSE(booted.fs().Lookup("/committed").ok()); });
  std::remove(path.c_str());
}

// --- ftl_inspect ----------------------------------------------------------

// A geometry whose erase block bounds values exactly as the config does, so
// the inspector (which knows only the geometry) and Attach share a bound.
StackConfig KvImageConfig() {
  StackConfig cfg;
  cfg.num_queues = 1;
  cfg.enable_ccnvme = false;
  cfg.kv.enabled = true;
  cfg.kv.dir_slots = 512;
  cfg.kv.shadow_slots = 8;
  cfg.kv.flash_pages = 1024;
  cfg.kv.pages_per_block = 8;
  cfg.kv.total_lpns = 768;
  cfg.kv.map_cache_segments = 1;
  cfg.kv.gc_free_blocks_low = 3;
  cfg.kv.max_value_bytes = 8 * 4096;
  return cfg;
}

TEST(FtlInspectTest, OutOfRangeDirectoryEntryIsReportedAsAttachReportsIt) {
  const StackConfig cfg = KvImageConfig();
  const std::string key = "ranged";
  CrashImage base;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.KvFormat().ok());
    stack.Run([&] {
      ASSERT_TRUE(stack.kv_driver()->Store(0, key, std::string(4096, 'r')).ok());
    });
    base = stack.CaptureCrashImage();
  }
  const KvPmrLayout layout =
      KvSuperblock::ForConfig(cfg.kv).Layout(base.pmr().size());
  // The first key in an empty directory lands on its home slot.
  const uint32_t slot = static_cast<uint32_t>(
      Fnv1a(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(key.data()),
                                     key.size())) %
      cfg.kv.dir_slots);
  const size_t meta_at = layout.DirSlotOff(slot) + KvDirEntry::kMetaOffset;
  const uint64_t meta = base.pmr().ReadU64(meta_at);
  ASSERT_TRUE(KvSsd::MetaLive(meta));
  const uint32_t key_len = KvSsd::MetaKeyLen(meta);
  struct Case {
    const char* name;
    uint64_t meta;
  };
  for (const Case& c : {
           Case{"no key", KvSsd::PackMeta(KvSsd::MetaLpn(meta), 4096, 0)},
           Case{"value past the bound",
                KvSsd::PackMeta(KvSsd::MetaLpn(meta), cfg.kv.max_value_bytes + 4096, key_len)},
           Case{"lpn past the logical space",
                KvSsd::PackMeta(cfg.kv.total_lpns - 1, 2 * 4096, key_len)},
       }) {
    CrashImage image = base;
    Buffer word(8);
    PutU64(word, 0, c.meta);
    image.pmr().Write(meta_at, word);

    StorageStack stack(cfg, image);
    ASSERT_TRUE(stack.KvAttach().ok()) << c.name;
    Status attach;
    stack.Run([&] { attach = stack.kv_ssd()->CheckConsistency(); });
    ASSERT_FALSE(attach.ok()) << c.name;

    const std::string path = TempImage("ranged");
    ASSERT_TRUE(SaveImage(image, path).ok());
    const ToolRun run = RunTool(FTL_INSPECT_BIN, path + " --json");
    std::remove(path.c_str());
    EXPECT_EQ(run.exit_code, 1) << c.name;
    const JsonValue report = ParseJson(run.out);
    const JsonValue* violations = report.Find("violations");
    ASSERT_NE(violations, nullptr);
    ASSERT_EQ(violations->arr.size(), 1u) << c.name << "\n" << run.out;
    EXPECT_EQ("kv-ssd: " + violations->arr[0].str, attach.message()) << c.name;
    EXPECT_NE(attach.message().find("directory slot " + std::to_string(slot) +
                                    " has out-of-range fields"),
              std::string::npos)
        << c.name << ": " << attach.message();
    EXPECT_EQ(report.Find("directory")->U64("live_keys"), 0u) << c.name;
  }
}

// --- fsck_ccnvme ----------------------------------------------------------

// An fsynced file whose NVLog entry has not drained yet lives only in the
// NVM tier: fsck must mount the image as NVLog, with that tier, to see it.
TEST(FsckTest, ListsAnFsyncedFileTheNvlogTierHasNotDrained) {
  StackConfig cfg;
  cfg.enable_ccnvme = false;
  cfg.fs_total_blocks = 65536;
  cfg.fs.journal = JournalKind::kNvlog;
  cfg.fs.journal_blocks = 1024;
  cfg.fs.nvlog_drain_delay_ns = 1'000'000'000;  // nothing drains before the cut
  cfg.nvm.size_bytes = 1 << 20;
  StorageStack stack(cfg);
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  CrashImage image;
  stack.Run([&] {
    auto ino = stack.fs().Create("/undrained_mail");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(stack.fs().Append(*ino, Buffer(kFsBlockSize, 0x4D)).ok());
    ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    ASSERT_LT(stack.sim().now(), 10'000'000u);
    Simulator::Sleep(10'000'000 - stack.sim().now());
    image = stack.CaptureCrashImage();  // 10 ms in: the drainer still sleeps
  });
  const std::string path = TempImage("nvlog_fsck");
  ASSERT_TRUE(SaveImage(image, path).ok());
  const ToolRun run = RunTool(FSCK_BIN, path + " --ls");
  std::remove(path.c_str());
  EXPECT_EQ(run.exit_code, 0) << run.out;
  EXPECT_NE(run.out.find("filesystem: CLEAN"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("undrained_mail"), std::string::npos) << run.out;
}

}  // namespace
}  // namespace ccnvme
