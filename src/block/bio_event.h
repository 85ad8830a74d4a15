// Block/driver event vocabulary shared by the block layer, the ccNVMe
// driver and the crash-test recorder.
//
// A recorded stream interleaves three persistence domains:
//   * media events  — bio submissions (kWrite/kFlush) and their durable
//     completions (kComplete), emitted by the volume (src/volume);
//   * PMR events    — MMIO traffic against the SSD's persistent memory
//     region (kPmrWrite/kPmrFence/kPmrDoorbell), emitted by the ccNVMe
//     driver;
//   * NVM events    — CPU stores into the byte-addressable NVM tier and
//     their persist barriers (kNvmWrite/kNvmFence), emitted by the NVM
//     device model (src/nvm).
// The crash-state exploration engine replays a prefix of this stream to
// reconstruct every device state a power cut could leave behind, including
// partially-persisted (torn) writes in both domains.
#ifndef SRC_BLOCK_BIO_EVENT_H_
#define SRC_BLOCK_BIO_EVENT_H_

#include <cstdint>
#include <functional>

#include "src/common/bytes.h"

namespace ccnvme {

enum class BioOp {
  kRead,
  kWrite,
  kFlush,
  kComplete,
  // --- PMR (ccNVMe) events ----------------------------------------------
  // A store into the PMR. With kBioPmrWc the bytes sit in the CPU's
  // write-combining buffer until the next kPmrFence on the same queue and
  // may tear at MMIO-word granularity across a power cut; without it the
  // store is uncached and durable immediately (doorbell/head updates).
  kPmrWrite,
  // clflush+mfence+read fence: all earlier kBioPmrWc stores on this queue
  // are persistent from here on.
  kPmrFence,
  // P-SQDB ring. Doubles as the device-visibility point: the controller
  // fetches and executes commands only after their doorbell, so a REQ_TX
  // write can reach media only if its transaction's doorbell event
  // precedes the crash point.
  kPmrDoorbell,
  // --- NVM (byte-addressable persistent memory) events --------------------
  // A CPU store into the NVM tier: visible to loads immediately, but
  // crash-durable only once a later kNvmFence covers it; until then a power
  // cut may persist any 8-byte-word subset (torn store). |lba| is a byte
  // offset into the NVM region.
  kNvmWrite,
  // clwb+sfence persist barrier: all earlier kNvmWrite stores are
  // persistent from here on. Global — the NVM tier has one cache domain.
  kNvmFence,
};

// Bio flags (subset of the kernel's REQ_*).
inline constexpr uint32_t kBioFua = 1u << 0;       // force unit access
inline constexpr uint32_t kBioPreflush = 1u << 1;  // flush cache before this write
inline constexpr uint32_t kBioTx = 1u << 2;        // ccNVMe: transaction member
inline constexpr uint32_t kBioTxCommit = 1u << 3;  // ccNVMe: commit record
// kPmrWrite only: bytes are write-combining buffered (tearable until the
// next kPmrFence on the same queue).
inline constexpr uint32_t kBioPmrWc = 1u << 8;

struct BioEvent {
  BioOp op;
  uint64_t seq = 0;  // submission sequence; kComplete references this
  uint64_t lba = 0;  // DEVICE-local media block for bios, byte offset for PMR
  uint32_t flags = 0;
  uint64_t tx_id = 0;
  uint16_t qid = 0;     // hardware queue (PMR events)
  uint16_t device = 0;  // member device of the volume (0 on a one-device stack)
  Buffer data;          // payload copy for write events
};
using BioRecorder = std::function<void(const BioEvent&)>;

}  // namespace ccnvme

#endif  // SRC_BLOCK_BIO_EVENT_H_
