// On-media journal record formats, shared by the classic JBD2-style journal
// and MQFS's multi-queue journal, and the one recovery scan and replay all
// of them and tools/journal_inspect use.
//
// A transaction in the log is:
//   [descriptor block][journaled block]*[commit block]      (classic, Horae)
//   [descriptor block][journaled block]*                    (MQFS, JBD2 over ccNVMe)
// Without a commit block the descriptor doubles as the commit record: it
// carries a content checksum per journaled block, so recovery can validate
// a transaction without a separate commit block — ringing the ccNVMe
// P-SQDB "plays the same role as the commit block" (§5.1), and the
// checksums detect transactions whose blocks never fully reached media.
//
// Every record block starts with (magic, type, tx_id) and ends with a
// checksum of the whole block, so a recovery scan can stop at the first
// torn or stale record.
#ifndef SRC_JBD2_JOURNAL_FORMAT_H_
#define SRC_JBD2_JOURNAL_FORMAT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/extfs/layout.h"
#include "src/vfs/types.h"

namespace ccnvme {

inline constexpr uint32_t kJournalMagic = 0x4A4E4C31;  // "JNL1"

enum class JournalRecordType : uint32_t {
  kDescriptor = 1,
  kCommit = 2,
  kAreaSuper = 4,
};

struct JournalEntry {
  BlockNo home_lba = 0;
  uint64_t content_checksum = 0;  // FNV-1a of the journaled block
};

// Descriptor: maps the journaled blocks that follow it to their home
// locations. Also carries the transaction's revocation list (§5.4).
struct DescriptorBlock {
  uint64_t tx_id = 0;
  std::vector<JournalEntry> entries;
  std::vector<BlockNo> revoked;

  static constexpr size_t kHeaderSize = 24;
  static constexpr size_t kMaxEntries = 200;  // 16 B each; leaves room for revocations

  void Serialize(std::span<uint8_t> out) const;
  static Result<DescriptorBlock> Parse(std::span<const uint8_t> in);
};

struct CommitBlock {
  uint64_t tx_id = 0;

  void Serialize(std::span<uint8_t> out) const;
  static Result<CommitBlock> Parse(std::span<const uint8_t> in);
};

// Per-area superblock (block 0 of each journal area).
struct AreaSuperblock {
  // Scan starts here (area-relative block index, in [1, area_blocks)).
  uint64_t start_offset = 1;
  // Transactions with id <= cleared_txid have been checkpointed; recovery
  // ignores any record carrying such an id (stale after wraparound).
  uint64_t cleared_txid = 0;

  void Serialize(std::span<uint8_t> out) const;
  static Result<AreaSuperblock> Parse(std::span<const uint8_t> in);
};

// --- Recovery: one area scan and one replay for every journal ---------------

// What seals a transaction, so that recovery may replay it: its commit
// record after the journaled blocks (Ext4, HoraeFS), or its descriptor's
// per-block checksums alone (MQFS, JBD2 over ccNVMe).
enum class JournalSeal : uint8_t { kCommitRecord, kDescriptorChecksums };
JournalSeal SealOf(JournalKind kind);

// A journal area: its superblock's block and its size, superblock included.
struct JournalArea {
  BlockNo start = 0;
  uint64_t blocks = 0;
};
// The areas of a file system of |layout| formatted for |kind|: the JBD2
// family logs to one compound area fusing the layout's areas, MQFS to one
// per hardware queue; kNone and kNvlog leave theirs empty.
std::vector<JournalArea> JournalAreasOf(JournalKind kind, const FsLayout& layout);

// Revoked home blocks (§5.4), each with the newest transaction that revoked
// it. Checkpoint and replay must not write home a journaled copy of |home|
// from that transaction or an older one (|tx_id|).
using Revocations = std::map<BlockNo, uint64_t>;
bool Revoked(const Revocations& revoked, BlockNo home, uint64_t tx_id);

// Reads a journal block: through the block layer, or from a disk image.
using JournalBlockReader = std::function<Status(BlockNo lba, Buffer* out)>;

struct ScannedTx {
  uint64_t offset = 0;  // area-relative block index of its descriptor
  DescriptorBlock desc;
  std::vector<BlockNo> journal_lbas;  // parallel to desc.entries
  BlockNo commit_lba = 0;             // the block after its journaled blocks
  bool checked = false;  // its blocks were read and matched their checksums
};

enum class ScanStop : uint8_t {
  kNoDescriptor,      // the next block is not a valid descriptor
  kStaleTxId,         // a descriptor no newer than the last replayable tx
  kChecksumMismatch,  // a journaled block does not match its checksum
  kNoCommitRecord,    // the commit record is missing, torn or another tx's
};
const char* ScanStopName(ScanStop stop);

struct AreaScan {
  AreaSuperblock asb;          // as found on media
  std::vector<ScannedTx> txs;  // replayable, in tx-id order
  uint64_t end_offset = 1;     // where the valid log ends
  uint64_t last_txid = 0;      // of the newest replayable tx, else asb.cleared_txid
  ScanStop stop = ScanStop::kNoDescriptor;
  // The transaction a kChecksumMismatch or kNoCommitRecord stop refused,
  // and (kChecksumMismatch) the index of its first bad entry.
  std::optional<ScannedTx> refused;
  size_t bad_entry = 0;
};

// Scans |area| from its superblock's start offset: each descriptor newer
// than the last, its journaled blocks, then (kCommitRecord) its commit
// record, until one does not hold. A transaction's blocks are checked
// against its checksums unless |in_doubt|, the recovered P-SQ window
// (§4.4), lacks it: it completed, so its blocks are on media and are not
// read. A null |in_doubt| (no window) checks every transaction.
Result<AreaScan> ScanJournalArea(const JournalBlockReader& read, const JournalArea& area,
                                 JournalSeal seal, const std::set<uint64_t>* in_doubt);

// Writes the replayable transactions of |areas| home in global tx-id order
// (§5.5), skipping a block revoked by the same or a later transaction
// (§5.4). The caller flushes.
Status ReplayJournal(std::span<const AreaScan> areas, const JournalBlockReader& read,
                     const std::function<Status(BlockNo lba, const Buffer& data)>& write);

}  // namespace ccnvme

#endif  // SRC_JBD2_JOURNAL_FORMAT_H_
