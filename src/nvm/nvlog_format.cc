#include "src/nvm/nvlog_format.h"

#include <algorithm>

#include "src/common/logging.h"

namespace ccnvme {

Buffer EncodeNvLogHeader(uint64_t seq, uint64_t tx_id, const std::vector<NvLogBlock>& blocks) {
  CCNVME_CHECK_LE(blocks.size(), kNvLogMaxBlocksPerEntry);
  Buffer header(NvLogHeaderSize(blocks.size()), 0);
  PutU64(header, 0, kNvLogEntryMagic);
  PutU64(header, 8, seq);
  PutU64(header, 16, tx_id);
  PutU32(header, 24, static_cast<uint32_t>(blocks.size()));
  size_t off = 32;
  for (const NvLogBlock& b : blocks) {
    CCNVME_CHECK_EQ(b.payload.size(), kFsBlockSize);
    PutU64(header, off, b.home_lba);
    PutU64(header, off + 8, Fnv1a(b.payload));
    off += 16;
  }
  PutU64(header, off, Fnv1a(std::span<const uint8_t>(header).first(off)));
  return header;
}

Buffer NvLogRingRead(const PageImage& nvm, size_t off, size_t len) {
  const size_t ring = nvm.size() - kNvLogCtrlBytes;
  CCNVME_CHECK_LT(off, ring);
  CCNVME_CHECK_LE(len, ring);
  Buffer out(len);
  const size_t first = std::min(len, ring - off);
  nvm.Read(kNvLogCtrlBytes + off, std::span<uint8_t>(out).first(first));
  if (first < len) {
    nvm.Read(kNvLogCtrlBytes, std::span<uint8_t>(out).subspan(first));
  }
  return out;
}

NvLogScan ScanNvLogImage(const PageImage& nvm) {
  NvLogScan scan;
  scan.scanned_bytes = std::min(nvm.size(), kNvLogCtrlBytes);
  if (nvm.size() <= kNvLogCtrlBytes || nvm.ReadU64(0) != kNvLogMagic) {
    scan.stop_reason = "no log (bad magic)";
    return scan;
  }
  const size_t ring = nvm.size() - kNvLogCtrlBytes;
  const uint64_t head_word = nvm.ReadU64(kNvLogHeadWordOffset);
  scan.ctrl.valid = true;
  scan.ctrl.head_off = NvLogHeadOff(head_word);
  scan.ctrl.head_seq = NvLogHeadSeq(head_word);
  if (scan.ctrl.head_off >= ring) {
    scan.ctrl.valid = false;
    scan.stop_reason = "head offset out of ring bounds";
    return scan;
  }

  size_t pos = scan.ctrl.head_off;
  uint64_t seq = scan.ctrl.head_seq + 1;
  size_t scanned = 0;
  scan.tail_end_off = static_cast<uint32_t>(pos);
  // Reads advance through each entry, so the last one reaches furthest; the
  // probe past a full ring wraps onto bytes already read.
  auto read = [&](size_t entry_off, size_t len) {
    scan.scanned_bytes = std::min(nvm.size(), kNvLogCtrlBytes + scanned + entry_off + len);
    return NvLogRingRead(nvm, (pos + entry_off) % ring, len);
  };
  for (;;) {
    const Buffer fixed = read(0, 32);
    if (GetU64(fixed, 0) != kNvLogEntryMagic) {
      scan.stop_reason = "end of log (no entry magic)";
      break;
    }
    if (GetU64(fixed, 8) != seq) {
      scan.stop_reason = "sequence break (stale entry)";
      break;
    }
    const uint32_t nblocks = GetU32(fixed, 24);
    if (nblocks == 0 || nblocks > kNvLogMaxBlocksPerEntry ||
        NvLogEntrySize(nblocks) + scanned > ring) {
      scan.stop_reason = "corrupt block count";
      break;
    }
    const size_t header_bytes = NvLogHeaderSize(nblocks);
    const Buffer header = read(0, header_bytes);
    if (GetU64(header, header_bytes - 8) !=
        Fnv1a(std::span<const uint8_t>(header).first(header_bytes - 8))) {
      scan.stop_reason = "header checksum mismatch";
      break;
    }
    NvLogEntryInfo info;
    info.seq = seq;
    info.tx_id = GetU64(header, 16);
    info.ring_off = static_cast<uint32_t>(pos);
    info.entry_bytes = NvLogEntrySize(nblocks);
    bool payload_ok = true;
    for (uint32_t b = 0; b < nblocks; ++b) {
      info.home_lbas.push_back(GetU64(header, 32 + 16 * b));
      info.checksums.push_back(GetU64(header, 32 + 16 * b + 8));
      const Buffer payload = read(header_bytes + b * kFsBlockSize, kFsBlockSize);
      if (Fnv1a(payload) != info.checksums.back()) {
        payload_ok = false;
        break;
      }
    }
    if (!payload_ok) {
      scan.stop_reason = "payload checksum mismatch";
      break;
    }
    pos = (pos + info.entry_bytes) % ring;
    scanned += info.entry_bytes;
    scan.tail.push_back(std::move(info));
    scan.tail_end_off = static_cast<uint32_t>(pos);
    ++seq;
  }
  return scan;
}

Buffer ReadNvLogPayload(const PageImage& nvm, const NvLogEntryInfo& entry,
                        size_t block_index) {
  CCNVME_CHECK_LT(block_index, entry.home_lbas.size());
  const size_t ring = nvm.size() - kNvLogCtrlBytes;
  const size_t header_bytes = NvLogHeaderSize(entry.home_lbas.size());
  const size_t off = (entry.ring_off + header_bytes + block_index * kFsBlockSize) % ring;
  return NvLogRingRead(nvm, off, kFsBlockSize);
}

}  // namespace ccnvme
