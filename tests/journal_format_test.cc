// Journal record format tests: serialization round trips, checksum
// enforcement (a torn or stale record must never parse), capacity limits,
// the superblock fields recovery depends on, and the one area scan and
// replay every journal's recovery runs.
#include <gtest/gtest.h>

#include <map>

#include "src/jbd2/journal_format.h"

namespace ccnvme {
namespace {

TEST(DescriptorBlockTest, RoundTrip) {
  DescriptorBlock d;
  d.tx_id = 0x123456789ABCDEF0ull;
  for (int i = 0; i < 10; ++i) {
    d.entries.push_back(JournalEntry{static_cast<BlockNo>(100 + i), 0xABCDull * (i + 1)});
  }
  d.revoked = {77, 88, 99};
  Buffer raw(kFsBlockSize, 0);
  d.Serialize(raw);

  auto back = DescriptorBlock::Parse(raw);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->tx_id, d.tx_id);
  ASSERT_EQ(back->entries.size(), 10u);
  EXPECT_EQ(back->entries[3].home_lba, 103u);
  EXPECT_EQ(back->entries[3].content_checksum, 0xABCDull * 4);
  EXPECT_EQ(back->revoked, d.revoked);
}

TEST(DescriptorBlockTest, MaxEntriesFit) {
  DescriptorBlock d;
  d.tx_id = 1;
  for (size_t i = 0; i < DescriptorBlock::kMaxEntries; ++i) {
    d.entries.push_back(JournalEntry{i, i});
  }
  Buffer raw(kFsBlockSize, 0);
  d.Serialize(raw);
  auto back = DescriptorBlock::Parse(raw);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->entries.size(), DescriptorBlock::kMaxEntries);
}

TEST(DescriptorBlockTest, SingleBitFlipInvalidates) {
  DescriptorBlock d;
  d.tx_id = 42;
  d.entries.push_back(JournalEntry{7, 7});
  Buffer raw(kFsBlockSize, 0);
  d.Serialize(raw);
  // Flip one bit anywhere in the covered region.
  for (size_t off : {size_t{0}, size_t{9}, size_t{30}, size_t{1000}}) {
    Buffer corrupt = raw;
    corrupt[off] ^= 0x40;
    EXPECT_FALSE(DescriptorBlock::Parse(corrupt).ok()) << "bit flip at " << off;
  }
}

TEST(DescriptorBlockTest, GarbageDoesNotParse) {
  Buffer junk(kFsBlockSize, 0xEE);
  EXPECT_FALSE(DescriptorBlock::Parse(junk).ok());
  Buffer zeros(kFsBlockSize, 0);
  EXPECT_FALSE(DescriptorBlock::Parse(zeros).ok());
}

TEST(CommitBlockTest, RoundTripAndTypeCheck) {
  CommitBlock c;
  c.tx_id = 99;
  Buffer raw(kFsBlockSize, 0);
  c.Serialize(raw);
  auto back = CommitBlock::Parse(raw);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->tx_id, 99u);
  // A commit block must not parse as a descriptor and vice versa.
  EXPECT_FALSE(DescriptorBlock::Parse(raw).ok());
  DescriptorBlock d;
  d.tx_id = 1;
  Buffer draw(kFsBlockSize, 0);
  d.Serialize(draw);
  EXPECT_FALSE(CommitBlock::Parse(draw).ok());
}

TEST(AreaSuperblockTest, RoundTrip) {
  AreaSuperblock sb;
  sb.start_offset = 1234;
  sb.cleared_txid = 999;
  Buffer raw(kFsBlockSize, 0);
  sb.Serialize(raw);
  auto back = AreaSuperblock::Parse(raw);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->start_offset, 1234u);
  EXPECT_EQ(back->cleared_txid, 999u);
}

// --- The shared area scan and replay -----------------------------------------

// A journal area in memory: its blocks by LBA (absent ones read as zeros),
// and a count of the reads a scan makes.
struct FakeArea {
  static constexpr uint64_t kBlocks = 16;
  BlockNo start;
  std::map<BlockNo, Buffer> blocks;
  size_t reads = 0;

  explicit FakeArea(uint64_t cleared_txid = 0, BlockNo area_start = 100) : start(area_start) {
    AreaSuperblock sb;
    sb.cleared_txid = cleared_txid;
    sb.Serialize(Block(start));
  }
  Buffer& Block(BlockNo lba) {
    Buffer& b = blocks[lba];
    b.resize(kFsBlockSize, 0);
    return b;
  }
  JournalArea area() const { return {start, kBlocks}; }
  JournalBlockReader Reader() {
    return [this](BlockNo lba, Buffer* out) {
      ++reads;
      auto it = blocks.find(lba);
      *out = it == blocks.end() ? Buffer(kFsBlockSize, 0) : it->second;
      return OkStatus();
    };
  }
  // Logs a transaction of |homes| at area offset |offset|: its descriptor,
  // one block per home filled with |fill| + i, then (|commit|) a commit
  // record. Returns the offset after it.
  uint64_t Log(uint64_t offset, uint64_t tx_id, const std::vector<BlockNo>& homes,
               uint8_t fill, bool commit, std::vector<BlockNo> revoked = {}) {
    DescriptorBlock d;
    d.tx_id = tx_id;
    d.revoked = std::move(revoked);
    for (size_t i = 0; i < homes.size(); ++i) {
      Buffer content(kFsBlockSize, static_cast<uint8_t>(fill + i));
      d.entries.push_back(JournalEntry{homes[i], Fnv1a(content)});
      Block(start + offset + 1 + i) = content;
    }
    d.Serialize(Block(start + offset));
    uint64_t next = offset + 1 + homes.size();
    if (commit) {
      CommitBlock c;
      c.tx_id = tx_id;
      c.Serialize(Block(start + next));
      ++next;
    }
    return next;
  }
};

TEST(ScanJournalAreaTest, ClassicTransactionIsSealedByItsCommitRecord) {
  FakeArea disk;
  const uint64_t end = disk.Log(1, 5, {700, 701}, 0x10, /*commit=*/true);
  auto scan = ScanJournalArea(disk.Reader(), disk.area(), JournalSeal::kCommitRecord, nullptr);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->txs.size(), 1u);
  EXPECT_TRUE(scan->txs[0].checked);
  EXPECT_EQ(scan->txs[0].journal_lbas, (std::vector<BlockNo>{102, 103}));
  EXPECT_EQ(scan->txs[0].commit_lba, 104u);
  EXPECT_EQ(scan->end_offset, end);
  EXPECT_EQ(scan->last_txid, 5u);
  EXPECT_EQ(scan->stop, ScanStop::kNoDescriptor);
  EXPECT_FALSE(scan->refused.has_value());
}

TEST(ScanJournalAreaTest, ClassicTransactionWithoutItsCommitRecordIsRefused) {
  for (const bool other_tx : {false, true}) {
    FakeArea disk;
    disk.Log(1, 5, {700, 701}, 0x10, /*commit=*/true);
    if (other_tx) {
      CommitBlock c;
      c.tx_id = 6;
      c.Serialize(disk.Block(104));
    } else {
      disk.Block(104).assign(kFsBlockSize, 0);  // zeroed commit record
    }
    auto scan =
        ScanJournalArea(disk.Reader(), disk.area(), JournalSeal::kCommitRecord, nullptr);
    ASSERT_TRUE(scan.ok());
    EXPECT_TRUE(scan->txs.empty());
    EXPECT_EQ(scan->stop, ScanStop::kNoCommitRecord);
    ASSERT_TRUE(scan->refused.has_value());
    EXPECT_EQ(scan->refused->desc.tx_id, 5u);
    EXPECT_EQ(scan->end_offset, 1u);
    EXPECT_EQ(scan->last_txid, 0u);
  }
}

TEST(ScanJournalAreaTest, TxIdAtOrBelowClearedTxidEndsTheScan) {
  FakeArea disk(/*cleared_txid=*/7);
  disk.Log(1, 7, {700}, 0x10, /*commit=*/false);
  auto scan = ScanJournalArea(disk.Reader(), disk.area(), JournalSeal::kDescriptorChecksums,
                              nullptr);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->txs.empty());
  EXPECT_EQ(scan->stop, ScanStop::kStaleTxId);
  EXPECT_EQ(scan->end_offset, 1u);
  EXPECT_EQ(scan->last_txid, 7u);

  // A descriptor no newer than the previous transaction ends it too.
  FakeArea wrapped(/*cleared_txid=*/2);
  const uint64_t next = wrapped.Log(1, 9, {700}, 0x10, /*commit=*/false);
  wrapped.Log(next, 8, {701}, 0x20, /*commit=*/false);
  scan = ScanJournalArea(wrapped.Reader(), wrapped.area(), JournalSeal::kDescriptorChecksums,
                         nullptr);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->txs.size(), 1u);
  EXPECT_EQ(scan->stop, ScanStop::kStaleTxId);
  EXPECT_EQ(scan->end_offset, next);
  EXPECT_EQ(scan->last_txid, 9u);
}

TEST(ScanJournalAreaTest, InDoubtTransactionWithABadBlockEndsTheScan) {
  FakeArea disk;
  disk.Log(1, 5, {700, 701, 702}, 0x10, /*commit=*/false);
  disk.Block(103)[17] ^= 0xFF;  // the second journaled block never fully landed
  const std::set<uint64_t> in_doubt = {5};
  auto scan = ScanJournalArea(disk.Reader(), disk.area(), JournalSeal::kDescriptorChecksums,
                              &in_doubt);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->txs.empty());
  EXPECT_EQ(scan->stop, ScanStop::kChecksumMismatch);
  ASSERT_TRUE(scan->refused.has_value());
  EXPECT_EQ(scan->bad_entry, 1u);
  EXPECT_EQ(scan->end_offset, 1u);
  // Superblock, descriptor, and the blocks up to the bad one.
  EXPECT_EQ(disk.reads, 4u);
}

TEST(ScanJournalAreaTest, TransactionOutsideTheWindowIsTrustedUnread) {
  FakeArea disk;
  const uint64_t end = disk.Log(1, 5, {700, 701, 702}, 0x10, /*commit=*/false);
  disk.Block(103)[17] ^= 0xFF;
  const std::set<uint64_t> window = {9};  // another queue's transaction
  auto scan = ScanJournalArea(disk.Reader(), disk.area(), JournalSeal::kDescriptorChecksums,
                              &window);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->txs.size(), 1u);
  EXPECT_FALSE(scan->txs[0].checked);
  EXPECT_EQ(scan->end_offset, end);
  // Superblock, descriptor, and the block after the transaction: none of
  // its three journaled blocks.
  EXPECT_EQ(disk.reads, 3u);
}

TEST(ReplayJournalTest, ReplaysByTxIdAcrossAreasAndHonoursRevocations) {
  FakeArea a(/*cleared_txid=*/0, /*start=*/100);
  FakeArea b(/*cleared_txid=*/0, /*start=*/200);
  // Area a: tx 3 writes 500; tx 6 revokes 501. Area b: tx 4 writes 500 and 501.
  const uint64_t next = a.Log(1, 3, {500}, 0x30, /*commit=*/false);
  a.Log(next, 6, {}, 0, /*commit=*/false, {501});
  b.Log(1, 4, {500, 501}, 0x40, /*commit=*/false);
  FakeArea disk;  // both areas on one device
  disk.blocks = a.blocks;
  disk.blocks.insert(b.blocks.begin(), b.blocks.end());
  std::vector<AreaScan> scans;
  for (const JournalArea& area : {a.area(), b.area()}) {
    auto scan =
        ScanJournalArea(disk.Reader(), area, JournalSeal::kDescriptorChecksums, nullptr);
    ASSERT_TRUE(scan.ok());
    scans.push_back(*scan);
  }
  std::vector<std::pair<BlockNo, uint8_t>> writes;
  ASSERT_TRUE(ReplayJournal(scans, disk.Reader(),
                            [&](BlockNo lba, const Buffer& data) {
                              writes.emplace_back(lba, data[0]);
                              return OkStatus();
                            })
                  .ok());
  // tx 3 then tx 4 write 500 (the newest lands last); tx 6 revokes 501.
  EXPECT_EQ(writes, (std::vector<std::pair<BlockNo, uint8_t>>{{500, 0x30}, {500, 0x40}}));
}

}  // namespace
}  // namespace ccnvme
