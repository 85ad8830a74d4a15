#include "src/jbd2/journal_format.h"

#include <algorithm>

#include "src/common/logging.h"

namespace ccnvme {

namespace {

constexpr size_t kChecksumOffset = kFsBlockSize - 8;

void StampHeader(std::span<uint8_t> out, JournalRecordType type, uint64_t tx_id) {
  std::memset(out.data(), 0, kFsBlockSize);
  PutU32(out, 0, kJournalMagic);
  PutU32(out, 4, static_cast<uint32_t>(type));
  PutU64(out, 8, tx_id);
}

void StampChecksum(std::span<uint8_t> out) {
  PutU64(out, kChecksumOffset, Fnv1a(out.subspan(0, kChecksumOffset)));
}

Status ValidateRecord(std::span<const uint8_t> in, JournalRecordType type) {
  if (in.size() < kFsBlockSize) {
    return InvalidArgument("short journal block");
  }
  if (GetU32(in, 0) != kJournalMagic) {
    return Corruption("bad journal record magic");
  }
  if (GetU64(in, kChecksumOffset) != Fnv1a(in.subspan(0, kChecksumOffset))) {
    return Corruption("journal record checksum mismatch");
  }
  if (GetU32(in, 4) != static_cast<uint32_t>(type)) {
    return Corruption("journal record of another type");
  }
  return OkStatus();
}

}  // namespace

void DescriptorBlock::Serialize(std::span<uint8_t> out) const {
  CCNVME_CHECK_LE(entries.size(), kMaxEntries);
  StampHeader(out, JournalRecordType::kDescriptor, tx_id);
  PutU32(out, 16, static_cast<uint32_t>(entries.size()));
  PutU32(out, 20, static_cast<uint32_t>(revoked.size()));
  size_t off = kHeaderSize;
  for (const JournalEntry& e : entries) {
    PutU64(out, off, e.home_lba);
    PutU64(out, off + 8, e.content_checksum);
    off += 16;
  }
  for (BlockNo r : revoked) {
    PutU64(out, off, r);
    off += 8;
  }
  CCNVME_CHECK_LE(off, kChecksumOffset);
  StampChecksum(out);
}

Result<DescriptorBlock> DescriptorBlock::Parse(std::span<const uint8_t> in) {
  CCNVME_RETURN_IF_ERROR(ValidateRecord(in, JournalRecordType::kDescriptor));
  DescriptorBlock d;
  d.tx_id = GetU64(in, 8);
  const uint32_t n = GetU32(in, 16);
  const uint32_t nr = GetU32(in, 20);
  if (n > kMaxEntries || kHeaderSize + 16ull * n + 8ull * nr > kChecksumOffset) {
    return Corruption("descriptor counts out of range");
  }
  size_t off = kHeaderSize;
  for (uint32_t i = 0; i < n; ++i) {
    JournalEntry e;
    e.home_lba = GetU64(in, off);
    e.content_checksum = GetU64(in, off + 8);
    d.entries.push_back(e);
    off += 16;
  }
  for (uint32_t i = 0; i < nr; ++i) {
    d.revoked.push_back(GetU64(in, off));
    off += 8;
  }
  return d;
}

void CommitBlock::Serialize(std::span<uint8_t> out) const {
  StampHeader(out, JournalRecordType::kCommit, tx_id);
  StampChecksum(out);
}

Result<CommitBlock> CommitBlock::Parse(std::span<const uint8_t> in) {
  CCNVME_RETURN_IF_ERROR(ValidateRecord(in, JournalRecordType::kCommit));
  CommitBlock c;
  c.tx_id = GetU64(in, 8);
  return c;
}

void AreaSuperblock::Serialize(std::span<uint8_t> out) const {
  StampHeader(out, JournalRecordType::kAreaSuper, 0);
  PutU64(out, 16, start_offset);
  PutU64(out, 24, cleared_txid);
  StampChecksum(out);
}

Result<AreaSuperblock> AreaSuperblock::Parse(std::span<const uint8_t> in) {
  CCNVME_RETURN_IF_ERROR(ValidateRecord(in, JournalRecordType::kAreaSuper));
  AreaSuperblock sb;
  sb.start_offset = GetU64(in, 16);
  sb.cleared_txid = GetU64(in, 24);
  return sb;
}

const char* ScanStopName(ScanStop stop) {
  static constexpr const char* kNames[] = {"no descriptor", "stale tx id", "checksum mismatch",
                                           "no commit record"};
  return kNames[static_cast<size_t>(stop)];
}

JournalSeal SealOf(JournalKind kind) {
  return kind == JournalKind::kMultiQueue || kind == JournalKind::kCcNvmeJbd2
             ? JournalSeal::kDescriptorChecksums
             : JournalSeal::kCommitRecord;
}

std::vector<JournalArea> JournalAreasOf(JournalKind kind, const FsLayout& layout) {
  if (kind == JournalKind::kClassic || kind == JournalKind::kHorae ||
      kind == JournalKind::kCcNvmeJbd2) {
    return {{layout.area_start(0), layout.blocks_per_area() * layout.journal_areas}};
  }
  std::vector<JournalArea> areas;
  for (uint32_t a = 0; a < layout.journal_areas; ++a) {
    areas.push_back({layout.area_start(a), layout.blocks_per_area()});
  }
  return areas;
}

Result<AreaScan> ScanJournalArea(const JournalBlockReader& read, const JournalArea& area,
                                 JournalSeal seal, const std::set<uint64_t>* in_doubt) {
  auto next = [&area](uint64_t off) { return off + 1 >= area.blocks ? 1 : off + 1; };
  AreaScan scan;
  Buffer block;
  CCNVME_RETURN_IF_ERROR(read(area.start, &block));
  CCNVME_ASSIGN_OR_RETURN(scan.asb, AreaSuperblock::Parse(block));
  scan.end_offset = scan.asb.start_offset;
  scan.last_txid = scan.asb.cleared_txid;
  for (;;) {
    CCNVME_RETURN_IF_ERROR(read(area.start + scan.end_offset, &block));
    auto desc = DescriptorBlock::Parse(block);
    if (!desc.ok() || desc->tx_id <= scan.last_txid) {
      scan.stop = desc.ok() ? ScanStop::kStaleTxId : ScanStop::kNoDescriptor;
      return scan;
    }
    ScannedTx tx;
    tx.offset = scan.end_offset;
    tx.desc = std::move(*desc);
    tx.checked = in_doubt == nullptr || in_doubt->count(tx.desc.tx_id) != 0;
    uint64_t p = next(tx.offset);
    for (size_t i = 0; i < tx.desc.entries.size(); ++i, p = next(p)) {
      tx.journal_lbas.push_back(area.start + p);
    }
    tx.commit_lba = area.start + p;
    for (size_t i = 0; tx.checked && i < tx.desc.entries.size(); ++i) {
      CCNVME_RETURN_IF_ERROR(read(tx.journal_lbas[i], &block));
      if (Fnv1a(block) != tx.desc.entries[i].content_checksum) {
        // The transaction never fully reached media: discard it.
        scan.stop = ScanStop::kChecksumMismatch;
        scan.bad_entry = i;
        scan.refused = std::move(tx);
        return scan;
      }
    }
    if (seal == JournalSeal::kCommitRecord) {
      CCNVME_RETURN_IF_ERROR(read(tx.commit_lba, &block));
      auto commit = CommitBlock::Parse(block);
      if (!commit.ok() || commit->tx_id != tx.desc.tx_id) {
        scan.stop = ScanStop::kNoCommitRecord;
        scan.refused = std::move(tx);
        return scan;
      }
      p = next(p);
    }
    scan.last_txid = tx.desc.tx_id;
    scan.end_offset = p;
    scan.txs.push_back(std::move(tx));
  }
}

bool Revoked(const Revocations& revoked, BlockNo home, uint64_t tx_id) {
  auto it = revoked.find(home);
  return it != revoked.end() && it->second >= tx_id;
}

Status ReplayJournal(std::span<const AreaScan> areas, const JournalBlockReader& read,
                     const std::function<Status(BlockNo lba, const Buffer& data)>& write) {
  // Global order across areas comes from the transaction ids (§4.4).
  std::vector<const ScannedTx*> txs;
  for (const AreaScan& area : areas) {
    for (const ScannedTx& tx : area.txs) {
      txs.push_back(&tx);
    }
  }
  std::sort(txs.begin(), txs.end(), [](const ScannedTx* a, const ScannedTx* b) {
    return a->desc.tx_id < b->desc.tx_id;
  });
  Revocations revoked;
  for (const ScannedTx* tx : txs) {
    for (BlockNo lba : tx->desc.revoked) {
      revoked[lba] = std::max(revoked[lba], tx->desc.tx_id);
    }
  }
  Buffer content;
  for (const ScannedTx* tx : txs) {
    for (size_t i = 0; i < tx->desc.entries.size(); ++i) {
      const BlockNo home = tx->desc.entries[i].home_lba;
      if (Revoked(revoked, home, tx->desc.tx_id)) {
        continue;
      }
      CCNVME_RETURN_IF_ERROR(read(tx->journal_lbas[i], &content));
      CCNVME_RETURN_IF_ERROR(write(home, content));
    }
  }
  return OkStatus();
}

}  // namespace ccnvme
