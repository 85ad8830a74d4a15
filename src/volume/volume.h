// Crash-consistent volume layer: the block layer's only route to the
// devices, and the only recorder of media bios.
//
// Binds N >= 1 independent simulated devices — each with its own PCIe link,
// SSD model, NVMe controller and host drivers — into ONE crash-consistent
// block address space (a one-member volume is the classic single-device
// stack):
//
//   * kStripe (RAID-0): chunked striping. Volume LBAs are grouped into
//     chunks of |chunk_blocks|; chunk c lives on device c % N at device
//     offset (c / N) * chunk_blocks. I/O spanning a chunk boundary is split
//     into per-device extents submitted in parallel.
//   * kMirror (RAID-1): every write goes to all live legs, reads are served
//     by the lowest-indexed live leg. A leg can be failed mid-flight
//     (degraded operation) and later rebuilt from a surviving leg.
//
// Transactions fan out with a TWO-PHASE protocol that preserves the ccNVMe
// atomicity contract across devices:
//
//   phase 1 (seal):   every member device whose P-SQ holds slices of the
//                     transaction gets ONE persistence flush + ONE P-SQDB
//                     ring covering those slices (CcNvmeDriver::SealTx) —
//                     but NO commit record.
//   phase 2 (commit): only after every member doorbell is persistently rung
//                     does the volume stage the REQ_TX_COMMIT record on the
//                     designated commit device and ring ITS doorbell.
//
// The commit device's doorbell is therefore the volume-wide atomicity
// point. Recovery scans ALL members' [P-SQ-head, P-SQDB) windows
// (RecoveredWindow() returns the union): a transaction present in any
// member's window is in doubt and must be validated by the journal's
// checksums, which read THROUGH the volume — so a transaction whose commit
// doorbell never rang is discarded even if some member slices landed
// (all-or-nothing across devices). Per-device completions remain in order
// on each member; the volume aggregates them asynchronously and reports the
// transaction durable only when every member transaction is durable.
//
// |test_skip_volume_commit_gate| inverts the two phases (commit doorbell
// first, then member seals after a delay) — an injected bug that the
// crash-state explorer must detect as an atomicity violation.
#ifndef SRC_VOLUME_VOLUME_H_
#define SRC_VOLUME_VOLUME_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/block/bio_event.h"
#include "src/ccnvme/ccnvme_driver.h"
#include "src/common/status.h"
#include "src/driver/nvme_driver.h"
#include "src/ssd/ssd_model.h"

namespace ccnvme {

enum class VolumeKind {
  kStripe,  // RAID-0: chunked striping across all members
  kMirror,  // RAID-1: every live leg holds a full copy
};

struct VolumeConfig {
  VolumeKind kind = VolumeKind::kStripe;
  // Stripe unit in 4 KB blocks (kStripe only).
  uint32_t chunk_blocks = 64;
  // INJECTED BUG for the crash-state explorer: ring the commit device's
  // REQ_TX_COMMIT doorbell BEFORE sealing the member devices. A crash in
  // the inverted window leaves a committed descriptor whose member slices
  // never reached any persistent queue — a cross-device atomicity
  // violation the explorer must catch.
  bool test_skip_volume_commit_gate = false;
};

class Volume {
 public:
  // One member device's driver surface. All pointers are borrowed and must
  // outlive the volume.
  struct Member {
    NvmeDriver* nvme = nullptr;
    CcNvmeDriver* cc = nullptr;  // may be null on stacks without ccNVMe
    SsdModel* ssd = nullptr;
  };

  Volume(Simulator* sim, const VolumeConfig& config, std::vector<Member> members);

  uint16_t num_devices() const { return static_cast<uint16_t>(members_.size()); }
  const Member& member(uint16_t device) const { return members_[device]; }
  bool alive(uint16_t device) const { return alive_[device]; }
  const VolumeConfig& config() const { return config_; }

  // A volume I/O decomposed onto one member device. |buf_offset| is the
  // position (in blocks) of this extent within the original payload.
  struct Extent {
    uint16_t device = 0;
    uint64_t dev_lba = 0;
    uint32_t num_blocks = 0;
    uint32_t buf_offset = 0;
  };
  // Stripe: the per-device extents of [lba, lba + num_blocks). Mirror: one
  // extent on the primary (lowest live) leg; write paths fan it out to all
  // live legs themselves. One member: one identity-mapped extent.
  std::vector<Extent> MapExtents(uint64_t lba, uint32_t num_blocks) const {
    return MapExtents(config_, num_devices(), PrimaryLeg(), lba, num_blocks);
  }
  // The same map for a volume of |num_devices| members whose primary leg is
  // |primary|, without a volume (tools read disk images through it).
  static std::vector<Extent> MapExtents(const VolumeConfig& config, uint16_t num_devices,
                                        uint16_t primary, uint64_t lba, uint32_t num_blocks);

  // --- Ordinary (non-transactional) path ---------------------------------

  // Fans the write out to its extents (stripe) or all live legs (mirror).
  // A write that maps to exactly one leg returns that leg's own driver
  // request. Otherwise the returned handle completes when every leg's CQE
  // has arrived, and |nvme_status| is the OR of the legs' statuses. |data|
  // must outlive completion; split slices are copied and kept alive
  // internally.
  NvmeDriver::RequestHandle SubmitWrite(uint16_t qid, uint64_t lba, const Buffer* data,
                                        uint32_t flags,
                                        std::function<void()> on_complete = nullptr);
  // Parallel per-extent reads, reassembled into |out| in volume order.
  Status Read(uint16_t qid, uint64_t lba, uint32_t num_blocks, Buffer* out);
  // Flushes every live member (parallel), returns the first error. |flags|
  // are stamped on the recorded flush events (a PREFLUSH write's flags).
  Status Flush(uint16_t qid, uint32_t flags = 0);

  // --- ccNVMe transactional path -----------------------------------------

  // Stages one atomic write's extents on the members' open transactions.
  // All slices of a transaction must use the same qid and tx_id (the
  // one-transaction-per-queue rule holds per member device).
  void SubmitTx(uint16_t qid, uint64_t tx_id, uint64_t lba, const Buffer* data,
                std::function<void()> on_complete = nullptr);

  // Two-phase commit (see file header). The returned handle is a synthetic
  // volume-level transaction: |atomic_at_ns| is the commit device's
  // doorbell time, |durable| is signaled when EVERY member transaction has
  // durably completed, and |on_durable| fires at that same point.
  CcNvmeDriver::TxHandle CommitTx(uint16_t qid, uint64_t tx_id, uint64_t lba,
                                  const Buffer* data,
                                  std::function<void()> on_durable = nullptr);

  // Union of every member's recovered [P-SQ-head, P-SQDB) window, each
  // entry stamped with its member index. A transaction present in ANY
  // member's window is in doubt for the whole volume.
  std::vector<CcNvmeDriver::UnfinishedRequest> RecoveredWindow() const;

  // --- Degraded operation & rebuild (kMirror) ----------------------------

  // Marks |device| dead: staged-but-unrung transaction slices on it are
  // aborted, and subsequent reads/writes/transactions skip it. At least one
  // leg must stay live.
  void FailDevice(uint16_t device);
  // Brings a failed leg back: new writes mirror to it again (write-through)
  // while every durable block of the lowest live leg is copied over through
  // the normal driver read/write path, then the leg is flushed.
  Status RebuildDevice(uint16_t device, uint16_t qid);

  // Media-event recorder (kWrite/kFlush/kComplete with the member device
  // stamped). PMR events are recorded by the member CcNvmeDrivers, which
  // share this stream — install the same recorder there (the harness does).
  void set_recorder(BioRecorder recorder) { recorder_ = std::move(recorder); }

  Volume(const Volume&) = delete;
  Volume& operator=(const Volume&) = delete;

 private:
  // Per-queue open transaction bookkeeping (which members were touched,
  // recorded submission seqs completed at durability, split-slice copies).
  struct OpenTx {
    uint64_t tx_id = 0;
    std::vector<bool> touched;
    std::vector<std::pair<uint16_t, uint64_t>> member_seqs;  // (device, seq)
    std::vector<std::shared_ptr<Buffer>> slices;
  };

  uint16_t PrimaryLeg() const;
  std::vector<uint16_t> LiveLegs() const;
  // Target devices of |extent| (stripe: the extent's device; mirror: all
  // live legs).
  std::vector<uint16_t> TargetLegs(const Extent& extent) const;
  // The extent's payload slice: the caller's buffer when the extent covers
  // it entirely, else a copy registered in |keep_alive|.
  const Buffer* SliceFor(const Extent& extent, const Buffer* data,
                         std::vector<std::shared_ptr<Buffer>>& keep_alive) const;

  uint64_t Record(uint16_t device, BioOp op, uint64_t dev_lba, uint32_t flags,
                  uint64_t tx_id, const Buffer* data);
  void RecordCompletion(uint16_t device, uint64_t seq);

  Simulator* sim_;
  VolumeConfig config_;
  std::vector<Member> members_;
  std::vector<bool> alive_;
  BioRecorder recorder_;
  uint64_t next_record_seq_ = 1;
  std::map<uint16_t, OpenTx> open_txs_;  // keyed by qid
};

}  // namespace ccnvme

#endif  // SRC_VOLUME_VOLUME_H_
