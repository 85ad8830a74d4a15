// KV-native SSD front-end: the NVMe KV command set executed directly over
// the FTL, with KV Store made atomic across FTL map + data.
//
// This is the repo's fourth durability architecture (next to jbd2, horae
// and ccnvme on the block path and the NVM write-ahead log): the device
// itself guarantees that a KV Store is all-or-nothing, so the host needs
// no journal at all.
//
// Persistent state lives in two domains:
//   * flash (via SsdModel): value pages and the flash copies of L2P map
//     segments, both written out-of-place by the FTL;
//   * the controller PMR (capacitor-backed, survives power cuts): a hash
//     directory of keys, a shadow ring of per-command map entries, the
//     global translation directory (GTD: map-segment roots), a superblock,
//     and two 4 KB staging frames that pack values shorter than a page.
//     All laid out top-down from the end of the PMR so the ccNVMe P-SQ
//     area at the bottom is untouched.
//
// A value shorter than one page is packed, four 1 KB values to a flash
// page. Its Store takes a 16-byte-aligned range of the open staging frame,
// WC-stores the value bytes there (with mu_ released) and the key bytes,
// fences, stores the meta word (which carries the offset), and fences
// again: no flash program, no map change, no shadow. The Store that finds
// the open frame full seals it, opens the other frame (waiting, unlocked,
// while that one is still being flushed) and, after its own commit,
// flushes the sealed frame as one page once every copy into it has
// landed: allocate, program unlocked, install the mapping, arm one shadow
// entry and fence, then clear the frame's header word with one uncached
// store. A packed LPN is freed when the last directory entry naming it
// dies (a count kept in RAM and rebuilt at attach); a frame holds its LPN
// until it flushes. Recovery treats a frame whose LPN the map already has
// as flushed: the mapped page beats the staged copy. The durable map may
// still hold a mapping of a freed LPN, so opening a frame also arms a
// shadow entry that unmaps its LPN; it rides the first value's fence
// together with the frame header.
//
// KV Store commit protocol for values of a page or more (the crash window
// src/crashtest enumerates):
//   1. write the value's data pages to flash (out-of-place, blocking);
//   2. stage the L2P updates in the cached map segments (volatile);
//   3. ARM: WC-store the key bytes (first insert) and a checksummed
//      32-byte shadow map-entry {seq, lpn, npages, ppn, slot} into the
//      PMR shadow ring, then fence — the shadow is now durable;
//   4. COMMIT: WC-store the slot's single 8-byte meta word (lpn, length,
//      key length, used bit), then fence.
// The meta word is the atomicity point. A crash before 4's store leaves
// the old value (directory unchanged, staged map volatile); a crash after
// it finds the shadow already durable (any fence ordering the meta word
// into the PMR also ordered the earlier shadow), so recovery replays the
// shadow into the map and the new value is complete. Tearing is a
// non-issue by construction: the meta word is one 8-byte MMIO word, and
// the key/shadow bytes are fenced before the meta word is stored.
// Recovery replays crc-clean shadows with consecutive sequence numbers
// above the checkpoint, then rebuilds physical-page liveness from the
// directory — a directory entry whose LPNs have no mapping is a
// consistency violation (exactly what test_skip_ftl_shadow_commit produces).
//
// Commands execute on NvmeController worker actors (several per queue) and
// overlap the way the block path's do. The device mutex `mu_` guards
// metadata only: the directory, the FTL's map and allocator, the shadow
// ring, and the PMR ARM/COMMIT steps. Flash reads and page programs run
// with it released, their blocks pinned so GC never picks them as victims.
// A Store therefore runs in two parts: allocate its runs under `mu_`,
// program them unlocked, then retake `mu_`, probe the directory again
// (another key may have taken its insert slot meanwhile) and install, ARM
// and COMMIT; the shadow sequence number is taken there, so commits stay in
// sequence order. A Store whose run needs a block still erasing, whose GC
// finds only pinned victims, or whose commit would need a block still
// erasing for its map writebacks, waits with `mu_` released. Media waits
// and PMR store costs are virtual-time blocking.
#ifndef SRC_NVME_KV_SSD_H_
#define SRC_NVME_KV_SSD_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/block/bio_event.h"
#include "src/common/status.h"
#include "src/nvme/pmr.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/ssd/ftl.h"
#include "src/ssd/ssd_model.h"

namespace ccnvme {

// Recorder qid for all KV-path PMR events (the FTL owns no host SQ; the
// value just namespaces its WC-fence domain away from real queues).
inline constexpr uint16_t kFtlQid = 0xFFFE;

// NVMe status codes for the KV command set.
inline constexpr uint16_t kKvStatusNotFound = 0x87;   // key does not exist
inline constexpr uint16_t kKvStatusCapacity = 0x88;   // device/table full
inline constexpr uint16_t kKvStatusInvalidField = 0x02;
inline constexpr uint16_t kKvStatusInternal = 0x06;
inline constexpr uint16_t kKvStatusMediaError = 0x281;

inline constexpr uint32_t kKvSsdMagic = 0x4b564343;  // "CCKV" little-endian
inline constexpr uint32_t kKvSsdVersion = 2;    // 2: staging frames
inline constexpr size_t kKvSuperblockBytes = 128;
inline constexpr size_t kKvDirSlotBytes = 32;   // 16B key + pad + 8B meta
inline constexpr size_t kKvShadowBytes = 32;
inline constexpr uint32_t kKvMaxKeyLen = 16;
// Staging frames: each is a header line (one 8-byte word naming its LPN)
// followed by one flash page of packed values.
inline constexpr uint32_t kKvFrames = 2;
inline constexpr size_t kKvFrameHeaderBytes = 64;
inline constexpr size_t kKvFrameBytes = 4096;
inline constexpr size_t kKvPackAlign = 16;      // packed value offsets
// Shadow fields of the entries a staging frame arms: no directory slot, and
// (when the frame opens) "this LPN is unmapped".
inline constexpr uint32_t kKvShadowNoSlot = 0xFFFFFFFF;
inline constexpr uint32_t kKvShadowUnmapped = 0xFFFFFFFF;

struct KvSsdConfig {
  bool enabled = false;           // StackConfig gate: builds the KV path
  uint32_t dir_slots = 1024;      // hash directory (linear probing)
  uint32_t shadow_slots = 64;     // shadow ring; wrap forces a checkpoint
  uint64_t flash_pages = 4096;    // physical geometry (see FtlConfig)
  uint32_t pages_per_block = 64;
  uint64_t total_lpns = 3072;
  uint32_t map_entries_per_segment = 512;
  uint32_t map_cache_segments = 4;
  uint32_t gc_free_blocks_low = 2;
  uint64_t erase_latency_ns = 2'000'000;
  uint64_t pmr_store_ns = 100;    // controller-internal PMR store cost
  uint64_t pmr_fence_ns = 250;    // controller-internal persist fence cost
  uint32_t max_value_bytes = 64 * 1024;  // <= pages_per_block * 4KB
  // Injected bug: commit the directory meta word WITHOUT first fencing the
  // shadow map-entry. Breaks map+data atomicity; must be caught by the
  // ftl.map_data_atomicity monitor AND the crash explorer.
  bool test_skip_ftl_shadow_commit = false;
};

// PMR layout of the KV metadata, top-down from the end of the region.
// Self-describing: KvSuperblock::Layout derives it from the geometry the
// superblock records, so tools parse a crash image without a StackConfig.
struct KvPmrLayout {
  size_t sb_off = 0;
  size_t gtd_off = 0;
  size_t shadow_off = 0;
  size_t dir_off = 0;
  size_t frame_off = 0;  // the staging frames, below the directory
  uint32_t num_segments = 0;

  size_t GtdOff(uint32_t segment) const { return gtd_off + static_cast<size_t>(segment) * 8; }
  size_t ShadowOff(uint32_t ring_slot) const {
    return shadow_off + static_cast<size_t>(ring_slot) * kKvShadowBytes;
  }
  size_t DirSlotOff(uint32_t slot) const {
    return dir_off + static_cast<size_t>(slot) * kKvDirSlotBytes;
  }
  size_t FrameHeaderOff(uint32_t frame) const {
    return frame_off + frame * (kKvFrameHeaderBytes + kKvFrameBytes);
  }
  size_t FrameDataOff(uint32_t frame) const {
    return FrameHeaderOff(frame) + kKvFrameHeaderBytes;
  }
};

// The KV superblock, the last kKvSuperblockBytes of the PMR.
struct KvSuperblock {
  uint64_t checkpoint_seq = 0;  // shadows up to it are in the flash map
  // Stats mirror, refreshed at every map checkpoint (offline tools only).
  uint64_t host_pages = 0;
  uint64_t media_pages = 0;
  uint64_t gc_runs = 0;
  uint64_t gc_migrated_pages = 0;
  // The geometry: KvSsdConfig's fields of the same names.
  uint32_t dir_slots = 0;
  uint32_t shadow_slots = 0;
  uint64_t flash_pages = 0;
  uint64_t total_lpns = 0;
  uint32_t pages_per_block = 0;
  uint32_t map_entries_per_segment = 0;
  uint32_t map_cache_segments = 0;
  uint32_t gc_free_blocks_low = 0;

  // What a running device rewrites in place: the checkpoint word, and the
  // stats mirror's four words.
  static constexpr size_t kCheckpointSeqOffset = 8;
  static constexpr size_t kStatsOffset = 24;

  static KvSuperblock ForConfig(const KvSsdConfig& config);  // checkpoint, stats 0
  // Of the fields that place the metadata and the flash pages; stored.
  uint64_t GeometryHash() const;
  // The longest value the geometry admits: one erase block, since a value's
  // pages are one contiguous run. KvSsdConfig::max_value_bytes may be lower.
  uint32_t MaxValueBytes() const { return pages_per_block * static_cast<uint32_t>(kKvFrameBytes); }
  FtlConfig ToFtlConfig() const {
    return {flash_pages,           pages_per_block,    total_lpns,
            map_entries_per_segment, map_cache_segments, gc_free_blocks_low};
  }
  KvPmrLayout Layout(size_t pmr_size) const;

  void Serialize(std::span<uint8_t> out) const;
  // Corruption unless the magic and version match, the stored hash covers
  // the stored geometry (a torn or foreign superblock) and the geometry is
  // one a KV-SSD can have.
  static Result<KvSuperblock> Parse(std::span<const uint8_t> in);
};

// One shadow map-entry of the PMR ring: LPNs [lpn, lpn + npages) map to PPNs
// [ppn, ppn + npages) (ppn kKvShadowUnmapped: are unmapped), armed for
// directory slot |slot| (kKvShadowNoSlot: by a staging frame).
struct KvShadowEntry {
  uint64_t seq = 0;
  uint64_t lpn = 0;
  uint32_t npages = 0;
  uint32_t ppn = 0;
  uint32_t slot = 0;

  void Serialize(std::span<uint8_t> out) const;  // kKvShadowBytes, checksummed
  // Corruption on a checksum mismatch: a torn store, or a slot never armed.
  static Result<KvShadowEntry> Parse(std::span<const uint8_t> in);
};

// The shadow ring as recovery reads it: the checksum-clean entries whose
// sequence number lies in (checkpoint_seq, checkpoint_seq + ring], by
// sequence number. The consecutive run right above the checkpoint replays:
// a gap means the later entries never armed before the crash, so their
// commits cannot have happened either (the commit fence orders arm first).
struct KvShadowChain {
  struct Entry {
    uint32_t ring_slot = 0;
    KvShadowEntry shadow;
  };
  std::vector<Entry> entries;
  size_t replayed = 0;    // the replayed prefix of |entries|
  uint64_t last_seq = 0;  // of the last replayed entry, else checkpoint_seq
  uint32_t torn = 0;      // armed slots (seq != 0) whose checksum fails
};
// Reads |pmr|'s ring and replays the chain into |ftl|'s map.
KvShadowChain ReplayShadowChain(const PageImage& pmr, const KvPmrLayout& layout,
                                const KvSuperblock& sb, Ftl& ftl);

// One directory slot: the key bytes, then at kMetaOffset the meta word
// (see KvSsd::PackMeta) whose store commits a Store.
struct KvDirEntry {
  std::array<uint8_t, kKvMaxKeyLen> key{};
  uint64_t meta = 0;

  static constexpr size_t kMetaOffset = 24;

  void Serialize(std::span<uint8_t> out) const;  // kKvDirSlotBytes
  static KvDirEntry Parse(std::span<const uint8_t> in);
};

class KvSsd : public FtlEnv {
 public:
  KvSsd(Simulator* sim, SsdModel* ssd, Pmr* pmr, const KvSsdConfig& config);
  ~KvSsd() override;

  void set_recorder(BioRecorder recorder) { recorder_ = std::move(recorder); }
  void set_device_id(uint16_t id) { device_id_ = id; }

  // Factory-formats the PMR metadata (fresh device; not recorded, like
  // mkfs). Call from an actor.
  Status Format();
  // Mount-time recovery: superblock + GTD + shadow replay + directory walk
  // rebuilding physical liveness. Call from an actor.
  Status Attach();
  bool attached() const { return attached_; }
  // Structural invariants of the attached state: every live directory entry
  // maps every LPN, no LPN or PPN claimed twice, fields in range. The
  // crash explorer calls this on every reconstructed state.
  Status CheckConsistency();

  // --- KV command execution (NvmeController worker actors) ----------------
  // Return an NVMe status code; |result| (where present) is CQE dword 0.
  uint16_t ExecStore(std::span<const uint8_t> key, std::span<const uint8_t> value);
  uint16_t ExecRetrieve(std::span<const uint8_t> key, Buffer* out, uint32_t* result);
  uint16_t ExecDelete(std::span<const uint8_t> key);
  uint16_t ExecExist(std::span<const uint8_t> key);
  // Cursor scan: starts at directory |start_slot|, emits up to |max_keys|
  // live keys as [u32 next_slot][u32 count][count x (u8 len + bytes)];
  // next_slot = 0xFFFFFFFF once the table is exhausted. |result| = count.
  uint16_t ExecList(uint32_t start_slot, uint32_t max_keys, Buffer* out,
                    uint32_t* result);

  // --- stats ---------------------------------------------------------------
  const Ftl& ftl() const { return *ftl_; }
  const KvSsdConfig& config() const { return config_; }
  const KvPmrLayout& layout() const { return layout_; }
  uint64_t stores() const { return stores_; }
  uint64_t retrieves() const { return retrieves_; }
  uint64_t deletes() const { return deletes_; }
  uint64_t last_seq() const { return last_seq_; }
  uint64_t checkpoint_seq() const { return checkpoint_seq_; }
  uint64_t live_keys() const { return live_keys_; }

  // --- FtlEnv --------------------------------------------------------------
  void PersistGtd(uint32_t seg, uint64_t ppn) override;
  uint64_t LoadGtd(uint32_t seg) override;
  bool FlashWrite(uint64_t ppn, const Buffer& data) override;
  bool FlashRead(uint64_t ppn, Buffer* out) override;
  uint64_t EraseLatencyNs() const override { return config_.erase_latency_ns; }
  void OnMapCheckpointed() override;

  // Directory meta-word packing (shared with tools/ftl_inspect): LPN in
  // bits 0-25, value length 26-45, key length 46-50, a packed value's
  // in-page offset / 16 in 51-58.
  static uint64_t PackMeta(uint64_t lpn, uint32_t value_len, uint32_t key_len,
                           uint32_t offset = 0);
  static constexpr uint64_t kMetaUsed = 1ull << 63;
  static constexpr uint64_t kMetaTomb = 1ull << 62;
  static uint64_t MetaLpn(uint64_t meta) { return meta & 0x3FFFFFF; }
  static uint32_t MetaValueLen(uint64_t meta) {
    return static_cast<uint32_t>((meta >> 26) & 0xFFFFF);
  }
  static uint32_t MetaKeyLen(uint64_t meta) {
    return static_cast<uint32_t>((meta >> 46) & 0x1F);
  }
  static uint32_t MetaOffset(uint64_t meta) {
    return static_cast<uint32_t>((meta >> 51) & 0xFF) * kKvPackAlign;
  }
  static bool MetaLive(uint64_t meta) {
    return (meta & kMetaUsed) != 0 && (meta & kMetaTomb) == 0;
  }
  static uint32_t MetaPages(uint64_t meta) {
    return (MetaValueLen(meta) + 4095) / 4096;
  }
  // Every non-empty value shorter than a page is packed.
  static bool MetaPacked(uint64_t meta) {
    return MetaValueLen(meta) > 0 && MetaValueLen(meta) < kKvFrameBytes;
  }
  // Where a packed value ends in its page. An entry ending past
  // kKvFrameBytes is corrupt: recovery reports it and Retrieve refuses it.
  static uint32_t PackedEnd(uint64_t meta) { return MetaOffset(meta) + MetaValueLen(meta); }
  // The frame bytes a packed value of |len| bytes takes.
  static uint32_t PackedBytes(size_t len) {
    return static_cast<uint32_t>((len + kKvPackAlign - 1) / kKvPackAlign * kKvPackAlign);
  }
  // Staging-frame header word: kFrameUsed | LPN while the frame stages
  // values, 0 when it is free.
  static constexpr uint64_t kFrameUsed = 1ull << 63;
  static uint64_t FrameLpn(uint64_t header) { return header & ~kFrameUsed; }
  // Recovery's reading of the frames' header words in |pmr| (shared with
  // tools/ftl_inspect). A frame is free, stages its LPN, or was flushed
  // before the cut: |ftl|'s replayed map has the LPN, and the mapped page
  // beats the staged copy. A header naming an LPN beyond the logical space,
  // or one an earlier frame stages, is reported into |errors| and the frame
  // counts as free.
  enum class FrameFate : uint8_t { kFree, kStaged, kFlushed };
  struct RecoveredFrame {
    FrameFate fate = FrameFate::kFree;
    uint64_t lpn = 0;
  };
  static std::array<RecoveredFrame, kKvFrames> RecoverFrames(const PageImage& pmr,
                                                             const KvPmrLayout& layout, Ftl& ftl,
                                                             std::vector<std::string>* errors);

  // Recovery's directory walk (shared with tools/ftl_inspect), in slot
  // order against the recovered |frames| and |ftl|'s replayed map. A live
  // entry with a key length outside [1, kKvMaxKeyLen], a value longer than
  // |max_value_bytes| or LPNs beyond the logical space is reported into
  // |errors| and tombstoned. Every other one claims its LPNs and marks the
  // pages they map to live: a packed page once, none for a value a frame
  // still stages. An entry covering an unmapped LPN is reported: its commit
  // word landed without its shadow (the test_skip_ftl_shadow_commit
  // signature).
  struct Directory {
    std::vector<KvDirEntry> entries;  // every slot, out-of-range entries tombstoned
    uint64_t live_keys = 0;
    uint64_t tombstones = 0;
    uint64_t live_value_bytes = 0;
    std::vector<uint8_t> claimed;  // per LPN: a live entry covers it
    // Per packed LPN: its live entries, plus one while a frame stages it.
    std::map<uint64_t, uint32_t> packed_refs;
    std::array<uint32_t, kKvFrames> frame_fill{};    // bytes a staged frame's values use
    std::array<uint32_t, kKvFrames> frame_values{};  // live values a staged frame holds
  };
  static Directory WalkDirectory(const PageImage& pmr, const KvPmrLayout& layout,
                                 const KvSuperblock& sb, uint32_t max_value_bytes,
                                 const std::array<RecoveredFrame, kKvFrames>& frames, Ftl& ftl,
                                 std::vector<std::string>* errors);

  KvSsd(const KvSsd&) = delete;
  KvSsd& operator=(const KvSsd&) = delete;

 private:
  // RAM view of a staging frame. kSealed: full, waiting for a Store to
  // flush it (a failed flush, or both frames staged at attach); kFlushing:
  // a Store is flushing it.
  enum class FrameState : uint8_t { kFree, kOpen, kSealed, kFlushing };
  struct Frame {
    FrameState state = FrameState::kFree;
    uint64_t lpn = 0;
    uint32_t fill = 0;     // bytes handed out, 16-byte aligned
    uint32_t copying = 0;  // Stores copying their value in with mu_ released
  };

  // Probing. |found| gets the live slot of |key| or -1; |insert| the first
  // reusable (tombstone/empty) slot in the chain or -1 (table full).
  void Probe(std::span<const uint8_t> key, int* found, int* insert) const;
  bool KeyMatches(const KvDirEntry& e, std::span<const uint8_t> key) const;
  void ReleaseValue(uint64_t meta);
  // Drops one reference to a packed LPN; the last one unmaps and frees it.
  void DropPackedRef(uint64_t lpn);
  // Sub-page Store: stage into the open frame (see the file comment).
  uint16_t StorePacked(std::span<const uint8_t> key, std::span<const uint8_t> value);
  // Flushes frame |f| (kFlushing) as one page and frees it. False, leaving
  // it kSealed, if the device is full or the program fails.
  bool FlushFrame(uint32_t f);
  // The frame staging |lpn|, or -1.
  int StagedFrame(uint64_t lpn) const;
  // The next shadow sequence number; checkpoints the map first if the
  // ring would overwrite a live entry.
  uint64_t NextShadowSeq();
  void StoreShadow(uint64_t seq, uint64_t lpn, uint32_t npages, uint64_t ppn,
                   uint32_t slot);
  // WC-stores |key| into |slot| unless the slot already holds it (|found|).
  void StoreKey(uint32_t slot, bool found, std::span<const uint8_t> key);
  // COMMIT: stores |meta| into |slot| (the atomicity point), fences, and
  // retires the value the slot held.
  void Commit(uint32_t slot, bool found, std::span<const uint8_t> key, uint64_t meta,
              bool data_durable, bool shadow_armed);
  // Waits, with mu_ released, until a busy AllocRun may retry: the erase
  // it needs completes at |ready_at|, or (|ready_at| == 0) a pin drops. The
  // erase is GC's last step, so the wait is emitted as wait.ftl_gc.
  void WaitForFtl(uint64_t ready_at);
  // Waits, with mu_ released, for a frame flush to end. Such a flush mostly
  // waits for the erase engine, so this is wait.ftl_gc too.
  void WaitForFlush();
  // Programs |data| as a run of whole pages, the last zero-padded: allocates
  // the run under mu_ (GC may run there), programs it with mu_ released and
  // the run's block pinned so GC leaves it alone, then waits, unlocked,
  // until the commit that maps it needs no erase for its map writebacks,
  // and unpins it. Empty |data| only waits. Returns 0 with the run's first
  // page in |*ppn|, or kKvStatusCapacity / kKvStatusMediaError with no page
  // left allocated.
  uint16_t ProgramRun(std::span<const uint8_t> data, uint64_t* ppn);
  void UnpinPage(uint64_t ppn);

  // Publishes the FTL level gauges (ftl.waf, page counts, GC totals) into
  // the attached metrics engine. Gauges are integral, so ftl.waf is
  // fixed-point x1000; the exact ratio is recoverable from
  // ftl.host_pages / ftl.media_pages. No-op without metrics; handles are
  // interned once so the per-op cost is array stores.
  void PublishFtlMetrics();

  // Recorded PMR traffic (device-internal engine, qid = kFtlQid). Copies
  // to and from the PMR cost pmr_store_ns per 64-byte line; a WC store is
  // recorded in chunks of at most 64 words, the unit the crash model tears.
  void PmrStoreWc(size_t offset, std::span<const uint8_t> data);
  void PmrStoreUncached(size_t offset, std::span<const uint8_t> data);
  void PmrFence();


  Simulator* sim_;
  SsdModel* ssd_;
  Pmr* pmr_;
  KvSsdConfig config_;
  KvPmrLayout layout_;
  BioRecorder recorder_;
  uint16_t device_id_ = 0;

  SimMutex mu_;
  SimCondVar ftl_cv_;         // AllocRun retries: erase done or pin dropped
  uint32_t pin_waiters_ = 0;  // Stores waiting for a pin to drop
  SimCondVar frame_cv_;       // a frame flush ended
  std::unique_ptr<Ftl> ftl_;
  std::vector<KvDirEntry> dir_;
  std::array<Frame, kKvFrames> frames_{};
  int open_ = -1;  // the open frame, or -1 (both free)
  // Live directory entries naming each packed LPN, plus one while a frame
  // stages it.
  std::map<uint64_t, uint32_t> packed_refs_;
  bool attached_ = false;
  uint64_t last_seq_ = 0;
  uint64_t checkpoint_seq_ = 0;
  uint64_t media_seq_ = 1ull << 40;  // KV media events; disjoint from bios
  uint64_t live_keys_ = 0;
  uint64_t stores_ = 0;
  uint64_t retrieves_ = 0;
  uint64_t deletes_ = 0;
  std::vector<std::string> attach_errors_;

  // Interned gauge handles for PublishFtlMetrics (valid while
  // metrics_seen_ matches the simulator's current engine).
  void* metrics_seen_ = nullptr;
  uint32_t gauge_handles_[8] = {};
};

}  // namespace ccnvme

#endif  // SRC_NVME_KV_SSD_H_
