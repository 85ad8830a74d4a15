// Byte-addressable non-volatile memory device model (NVLog's persistence
// tier, after arXiv 2408.02911).
//
// The model mirrors a DIMM-attached persistent memory: CPU stores land in
// the cache hierarchy immediately (the LIVE view all loads read), but only
// become crash-durable once an explicit flush+fence barrier (clwb;sfence)
// pushes them out — until then a power cut may persist any 8-byte-word
// subset of an unflushed store, exactly the torn-store granularity the PMR
// MMIO model uses (src/nvme/pmr.h). The device exposes two views:
//
//   * live    — what loads observe (every store applied immediately);
//   * durable — what a power cut right now is GUARANTEED to leave behind
//               (the live view as of the last FlushFence).
//
// Both views are PageImages (src/ssd/media.h): sparse tables of
// copy-on-write 4 KB pages, where a page never stored to holds no memory
// and reads as zeros. The durable view shares every page not stored to
// since the last FlushFence with the live view; the first store to a page
// after a fence copies it, and the fence shares the stored pages back. So
// the tier costs the pages it holds plus the pre-fence copies of the pages
// stored since the last fence, and a crash image or a stack booted from one
// shares pages instead of copying the region.
//
// Every store and barrier is reported to the crash-test recorder as
// kNvmWrite / kNvmFence events, so src/crashtest can enumerate the torn
// and absent subsets of the unfenced window the same way it does for
// write-combining PMR traffic.
#ifndef SRC_NVM_NVM_DEVICE_H_
#define SRC_NVM_NVM_DEVICE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/block/bio_event.h"
#include "src/common/bytes.h"
#include "src/sim/simulator.h"
#include "src/ssd/media.h"

namespace ccnvme {

// Store tear granularity: one naturally-aligned 8-byte word, matching the
// PMR MMIO model (a cache-line eviction moves whole words, never partial).
inline constexpr size_t kNvmWordSize = 8;
// Cache-line size the flush cost model charges per.
inline constexpr size_t kNvmLineSize = 64;
// Stores are recorded (and may tear) in chunks of at most 64 words so a
// single torn-survivor bitmask covers any chunk (TornMask's 64-unit limit).
inline constexpr size_t kNvmStoreChunk = kNvmWordSize * 64;

struct NvmConfig {
  bool enabled = false;
  size_t size_bytes = 16 * 1024 * 1024;
  // Optane-DCPMM-flavoured timing: media write per dirtied cache line,
  // read latency per line, and the clwb+sfence persist barrier.
  uint64_t store_line_ns = 60;
  uint64_t load_line_ns = 170;
  uint64_t fence_ns = 500;
};

class NvmDevice {
 public:
  NvmDevice(Simulator* sim, const NvmConfig& config);
  // Boots from a surviving persistent image (post power cut): both views
  // share |image|'s pages (everything that survived is durable by
  // definition).
  NvmDevice(Simulator* sim, const NvmConfig& config, const PageImage& image);

  size_t size() const { return live_.size(); }
  const NvmConfig& config() const { return config_; }

  // CPU store: visible to loads immediately, crash-durable only after the
  // next FlushFence. Charges store cost in virtual time and records one
  // kNvmWrite event per <=512-byte chunk. Must run inside an actor.
  void Store(size_t offset, std::span<const uint8_t> data);
  void StoreU64(size_t offset, uint64_t v);

  // CPU load from the live view. Charges load cost in virtual time.
  void Load(size_t offset, std::span<uint8_t> out);
  uint64_t LoadU64(size_t offset);
  // Charges what a Load of |len| bytes charges, for bytes the caller read
  // through live_image() instead of Load (a mount-time scan).
  void ChargeLoad(size_t len);

  // clwb of every line dirtied since the last barrier + sfence: makes every
  // pending store durable and records one kNvmFence event. Returns the
  // number of pending byte-ranges it persisted.
  size_t FlushFence();

  // The crash-conservative persistent image: bytes a power cut right now is
  // guaranteed to preserve. Unfenced stores are NOT included — the crash
  // explorer chooses their fate per 8-byte word itself. Copying it copies
  // page handles, not bytes.
  const PageImage& durable_image() const { return durable_; }
  // The live view (what loads see), uncharged. It shows later stores, so
  // read it before storing again. Never used to build crash states.
  const PageImage& live_image() const { return live_; }

  bool has_pending_stores() const { return pending_stores_ != 0; }

  void set_recorder(BioRecorder recorder) { recorder_ = std::move(recorder); }

  // Stats for tools/tests.
  uint64_t stores() const { return stores_; }
  uint64_t fences() const { return fences_; }

  NvmDevice(const NvmDevice&) = delete;
  NvmDevice& operator=(const NvmDevice&) = delete;

 private:
  Simulator* sim_;
  NvmConfig config_;
  PageImage live_;
  PageImage durable_;
  // Pages stored to since the last fence: the ones live_ and durable_ no
  // longer share.
  std::vector<size_t> dirty_pages_;
  size_t pending_stores_ = 0;  // stored-but-unfenced chunks
  BioRecorder recorder_;
  uint64_t stores_ = 0;
  uint64_t fences_ = 0;
};

// Applies a TORN store to an NVM or PMR image: only the 8-byte words of
// |data| selected by |word_mask| (bit w covers bytes [8w, 8w+8) of |data|,
// clipped to its size) land at |offset|; the rest keep their previous
// contents. Used by the crash-state builder for unfenced kNvmWrite events
// and torn write-combined kPmrWrite events.
void NvmApplyTornWords(PageImage& image, size_t offset, std::span<const uint8_t> data,
                       uint64_t word_mask);

}  // namespace ccnvme

#endif  // SRC_NVM_NVM_DEVICE_H_
