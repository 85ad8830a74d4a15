// On-disk layout and superblock.
//
//   block 0              superblock
//   block 1              inode bitmap (1 block = 32768 inodes)
//   blocks 2..           block bitmap (covers the data area)
//   then                 inode table (32768 inodes * 256 B = 2048 blocks)
//   then                 journal area(s) (contiguous, split evenly)
//   then                 data area
//
// The layout is a pure function of (total_blocks, journal config), so the
// superblock only stores those inputs, the journal it was formatted for and
// integrity fields.
#ifndef SRC_EXTFS_LAYOUT_H_
#define SRC_EXTFS_LAYOUT_H_

#include <cstdint>
#include <string>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/vfs/types.h"

namespace ccnvme {

inline constexpr uint32_t kFsMagic = 0xCC4E564D;  // "ccNVM"
inline constexpr uint32_t kMaxInodes = 32768;
inline constexpr uint64_t kInodeTableBlocks = 2048;
// Block group size used to pick the radix tree for a metadata block (§5.2).
inline constexpr uint64_t kBlocksPerGroup = 8192;

// The journal a file system is formatted for (see extfs.h for what each
// one models). The values are stable: the superblock records them.
enum class JournalKind { kNone, kClassic, kHorae, kCcNvmeJbd2, kMultiQueue, kNvlog };
// "none", "classic", "horae", "ccnvme_jbd2", "multi_queue", "nvlog".
const char* JournalKindName(JournalKind kind);
Result<JournalKind> ParseJournalKind(const std::string& name);

struct FsLayout {
  uint64_t total_blocks = 0;
  uint32_t journal_areas = 1;
  uint64_t journal_blocks = 0;  // total across all areas

  BlockNo inode_bitmap() const { return 1; }
  BlockNo block_bitmap_start() const { return 2; }
  uint64_t block_bitmap_blocks() const {
    // One bit per data block; sized for the whole device (over-provisioned
    // but simple).
    return (total_blocks + kFsBlockSize * 8 - 1) / (kFsBlockSize * 8);
  }
  BlockNo inode_table_start() const { return block_bitmap_start() + block_bitmap_blocks(); }
  BlockNo journal_start() const { return inode_table_start() + kInodeTableBlocks; }
  uint64_t blocks_per_area() const { return journal_blocks / journal_areas; }
  BlockNo area_start(uint32_t area) const { return journal_start() + area * blocks_per_area(); }
  BlockNo data_start() const { return journal_start() + journal_blocks; }
  uint64_t data_blocks() const { return total_blocks - data_start(); }

  BlockNo InodeTableBlock(InodeNum ino) const {
    return inode_table_start() + ino / kInodesPerBlockConst();
  }
  size_t InodeOffsetInBlock(InodeNum ino) const {
    return (ino % kInodesPerBlockConst()) * 256;
  }
  static constexpr uint64_t kInodesPerBlockConst() { return kFsBlockSize / 256; }
};

struct Superblock {
  uint32_t magic = kFsMagic;
  uint64_t total_blocks = 0;
  uint32_t journal_areas = 1;
  uint64_t journal_blocks = 0;
  // Set while mounted; a crash leaves it set, triggering journal recovery.
  uint32_t dirty_mount = 0;
  // The journal ExtFs::Mkfs formatted the image for. Stored plus one, so a
  // superblock written before the field existed reads 0 and is rejected.
  JournalKind journal = JournalKind::kClassic;

  void Serialize(std::span<uint8_t> out) const;
  static Result<Superblock> Parse(std::span<const uint8_t> in);

  FsLayout ToLayout() const {
    FsLayout l;
    l.total_blocks = total_blocks;
    l.journal_areas = journal_areas;
    l.journal_blocks = journal_blocks;
    return l;
  }
};

}  // namespace ccnvme

#endif  // SRC_EXTFS_LAYOUT_H_
