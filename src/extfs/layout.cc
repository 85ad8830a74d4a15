#include "src/extfs/layout.h"

#include <iterator>

#include "src/vfs/inode.h"

namespace ccnvme {

namespace {
constexpr const char* kJournalKindNames[] = {"none",        "classic",     "horae",
                                             "ccnvme_jbd2", "multi_queue", "nvlog"};
}  // namespace

const char* JournalKindName(JournalKind kind) {
  return kJournalKindNames[static_cast<size_t>(kind)];
}

Result<JournalKind> ParseJournalKind(const std::string& name) {
  for (size_t k = 0; k < std::size(kJournalKindNames); ++k) {
    if (name == kJournalKindNames[k]) {
      return static_cast<JournalKind>(k);
    }
  }
  return InvalidArgument("unknown journal kind: " + name);
}

void Superblock::Serialize(std::span<uint8_t> out) const {
  std::memset(out.data(), 0, kFsBlockSize);
  PutU32(out, 0, magic);
  PutU64(out, 8, total_blocks);
  PutU32(out, 16, journal_areas);
  PutU64(out, 24, journal_blocks);
  PutU32(out, 32, dirty_mount);
  PutU32(out, 36, static_cast<uint32_t>(journal) + 1);
  const uint64_t csum = Fnv1a(out.subspan(0, 64));
  PutU64(out, 64, csum);
}

Result<Superblock> Superblock::Parse(std::span<const uint8_t> in) {
  if (GetU32(in, 0) != kFsMagic) {
    return Corruption("bad superblock magic");
  }
  const uint64_t want = GetU64(in, 64);
  if (Fnv1a(in.subspan(0, 64)) != want) {
    return Corruption("superblock checksum mismatch");
  }
  Superblock sb;
  sb.magic = GetU32(in, 0);
  sb.total_blocks = GetU64(in, 8);
  sb.journal_areas = GetU32(in, 16);
  sb.journal_blocks = GetU64(in, 24);
  sb.dirty_mount = GetU32(in, 32);
  const uint32_t journal = GetU32(in, 36);
  if (journal == 0 || journal > std::size(kJournalKindNames)) {
    return Corruption("superblock records no journal kind (reformat the image)");
  }
  sb.journal = static_cast<JournalKind>(journal - 1);
  return sb;
}

}  // namespace ccnvme
