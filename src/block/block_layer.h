// Block layer: the bio abstraction between file systems and drivers.
//
// Mirrors the Linux block layer's role in Figure 3: file systems build bios,
// tag them (REQ_FUA / REQ_PREFLUSH for classic ordering, REQ_TX /
// REQ_TX_COMMIT plus a transaction ID for ccNVMe), and submit them on the
// hardware queue bound to the current core. The layer charges the per-bio
// software cost (Figure 14 shows it at ~1 us), strips PREFLUSH on drives
// with power-loss protection, and hands every bio to the volume (one or
// more member devices), which dispatches it:
//   * ordinary bios        -> the members' stock NVMe drivers
//   * REQ_TX-tagged bios   -> the members' ccNVMe transactional path
// The volume is also where the CrashMonkey-style recorder observes media
// bios.
#ifndef SRC_BLOCK_BLOCK_LAYER_H_
#define SRC_BLOCK_BLOCK_LAYER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/block/bio_event.h"
#include "src/common/status.h"
#include "src/volume/volume.h"

namespace ccnvme {

class NvmDevice;

class BlockLayer {
 public:
  // |volume| must outlive the block layer.
  BlockLayer(Simulator* sim, Volume* volume);

  // Binds the calling actor to hardware queue |qid| (per-core queues).
  void BindQueue(uint16_t qid);
  uint16_t current_queue() const;

  // --- Ordinary (non-transactional) path --------------------------------

  // Asynchronous write; |data| must outlive completion.
  NvmeDriver::RequestHandle SubmitWrite(uint64_t lba, const Buffer* data, uint32_t flags,
                                        std::function<void()> on_complete = nullptr);
  Status WriteSync(uint64_t lba, const Buffer& data, uint32_t flags = 0);
  Status ReadSync(uint64_t lba, uint32_t num_blocks, Buffer* out);
  Status FlushSync();
  static Status Wait(const NvmeDriver::RequestHandle& req) { return NvmeDriver::Wait(req); }

  // --- ccNVMe transactional path -----------------------------------------

  bool has_ccnvme() const { return volume_->member(0).cc != nullptr; }

  // Stages one atomic write on the current queue's open transaction.
  // |on_complete| fires when this request's CQE arrives.
  void SubmitTxWrite(uint64_t tx_id, uint64_t lba, const Buffer* data,
                     std::function<void()> on_complete = nullptr);
  // Stages the commit record and performs the transaction-aware MMIO flush
  // + doorbell. When this returns the transaction is ATOMIC (MQFS-A point);
  // wait on the returned handle for DURABILITY (MQFS point).
  CcNvmeDriver::TxHandle CommitTx(uint64_t tx_id, uint64_t lba, const Buffer* data,
                                  std::function<void()> on_durable = nullptr);

  // Blocks until the transaction is durable on every member device.
  void WaitTxDurable(const CcNvmeDriver::TxHandle& tx);

  // The in-doubt window found at driver bring-up: the union of every
  // member's [P-SQ-head, P-SQDB) window.
  std::vector<CcNvmeDriver::UnfinishedRequest> RecoveredWindow() const {
    return volume_->RecoveredWindow();
  }

  // --- NVM tier (NVLog) ---------------------------------------------------
  // The byte-addressable NVM device, when the stack has one. The block
  // layer only carries the pointer (file systems reach it through their
  // block layer, as they reach the transactional path); all NVM traffic
  // goes through the device directly, never through bios.
  void set_nvm(NvmDevice* nvm) { nvm_ = nvm; }
  NvmDevice* nvm() { return nvm_; }

 private:
  Simulator* sim_;
  Volume* volume_;
  NvmDevice* nvm_ = nullptr;
  // True when the device has a volatile write cache without power-loss
  // protection, i.e. FLUSH/PREFLUSH actually matter. On PLP drives the
  // block layer strips them (the paper observes exactly this on Optane).
  bool needs_flush_ = false;
};

}  // namespace ccnvme

#endif  // SRC_BLOCK_BLOCK_LAYER_H_
