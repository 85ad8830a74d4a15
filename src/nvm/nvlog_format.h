// On-NVM layout of the transparent write-ahead log (NVLog).
//
// The region is a control block plus one byte-granular ring:
//
//   [0,  8)  log magic "CCNVLOG1"
//   [8, 16)  head word: (head_seq << 32) | head_off — the drain frontier.
//            head_off is a ring-relative byte offset; head_seq the sequence
//            number of the last CHECKPOINTED entry. One naturally-aligned
//            8-byte word, so the frontier advances atomically even across a
//            power cut (an 8-byte NVM store cannot tear).
//   [16,64)  reserved
//   [64,  N) entry ring
//
// Entry wire format (little-endian, byte-wrapped around the ring):
//   entry magic u64 | seq u64 | tx_id u64 | nblocks u32 | pad u32
//   nblocks x { home_lba u64, payload FNV-1a u64 }
//   header FNV-1a u64 (over all preceding header bytes)
//   nblocks x 4 KB payload
//
// Sequence numbers are consecutive from head_seq+1; the valid undrained
// tail is the longest chain of checksum-clean, consecutive-seq entries
// starting at head_off. Appends serialize and each fsync fences its entry
// before returning, so on the correct protocol a power cut can only
// invalidate a suffix — exactly what the scanner drops. Each append also
// zeroes the 8-byte magic slot just past the new tail so the scan always
// terminates at the genuine end, never at a stale previous-lap entry.
//
// Everything here is pure byte manipulation over an NVM page image: the
// online log (src/nvm/nvlog.h), mount-time recovery, tools/nvlog_inspect
// and the crash tests all share this one scanner.
#ifndef SRC_NVM_NVLOG_FORMAT_H_
#define SRC_NVM_NVLOG_FORMAT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/logging.h"
#include "src/ssd/media.h"
#include "src/vfs/types.h"

namespace ccnvme {

inline constexpr uint64_t kNvLogMagic = 0x31474F4C564E4343ull;       // "CCNVLOG1"
inline constexpr uint64_t kNvLogEntryMagic = 0x544E45474F4C564Eull;  // "NVLOGENT"
inline constexpr size_t kNvLogCtrlBytes = 64;
inline constexpr size_t kNvLogHeadWordOffset = 8;
inline constexpr size_t kNvLogMaxBlocksPerEntry = 256;

// Header bytes for an entry carrying |nblocks| payload blocks.
constexpr size_t NvLogHeaderSize(size_t nblocks) { return 32 + 16 * nblocks + 8; }
// Full on-ring footprint of such an entry.
constexpr size_t NvLogEntrySize(size_t nblocks) {
  return NvLogHeaderSize(nblocks) + nblocks * kFsBlockSize;
}

// One logged block: home LBA + frozen payload.
struct NvLogBlock {
  uint64_t home_lba = 0;
  Buffer payload;
};

// Serializes the header for |blocks| (payload checksums computed here).
Buffer EncodeNvLogHeader(uint64_t seq, uint64_t tx_id, const std::vector<NvLogBlock>& blocks);

// Packing of the ctrl head word. head_seq must fit its 32-bit half — past
// 2^32 the shift would silently corrupt the drain frontier.
constexpr uint64_t PackNvLogHead(uint64_t head_seq, uint32_t head_off) {
  CCNVME_CHECK_LT(head_seq, 1ull << 32) << "head_seq overflows the 32-bit head-word field";
  return (head_seq << 32) | head_off;
}
constexpr uint64_t NvLogHeadSeq(uint64_t word) { return word >> 32; }
constexpr uint32_t NvLogHeadOff(uint64_t word) { return static_cast<uint32_t>(word); }

// Wrap-aware ring read of [off, off+len) into a fresh buffer. |off| is
// ring-relative (0 = first ring byte).
Buffer NvLogRingRead(const PageImage& nvm, size_t off, size_t len);

struct NvLogControl {
  bool valid = false;  // log magic present
  uint32_t head_off = 0;
  uint64_t head_seq = 0;
};

struct NvLogEntryInfo {
  uint64_t seq = 0;
  uint64_t tx_id = 0;
  uint32_t ring_off = 0;  // where the header starts
  size_t entry_bytes = 0;
  std::vector<uint64_t> home_lbas;
  std::vector<uint64_t> checksums;
};

struct NvLogScan {
  NvLogControl ctrl;
  std::vector<NvLogEntryInfo> tail;  // valid undrained entries, seq order
  uint32_t tail_end_off = 0;         // ring offset just past the last valid entry
  std::string stop_reason;           // why the scan stopped
  // Bytes the scan read: the control block, then the ring from the drain
  // frontier to the furthest byte of the entry that stopped it.
  size_t scanned_bytes = 0;
};

// Scans the undrained tail of an NVM image: parses the control block,
// then walks consecutive-seq entries from the drain frontier, validating
// header and payload checksums, stopping at the first invalid entry.
NvLogScan ScanNvLogImage(const PageImage& nvm);

// Extracts payload block |block_index| of a scanned entry.
Buffer ReadNvLogPayload(const PageImage& nvm, const NvLogEntryInfo& entry,
                        size_t block_index);

}  // namespace ccnvme

#endif  // SRC_NVM_NVLOG_FORMAT_H_
